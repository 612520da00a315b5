"""Point-cloud primitives: transforms, squared distances, Chamfer distances,
and the one JSON encoder and its inverse."""

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import pytest

import propsuites as ps
import partwarp.geom as geom
from partwarp.geom import (
    ChamferQuery,
    PointCloud,
    RigidTransform,
    adjacency_label_values,
    chamfer,
    from_json,
    labeled_chamfer,
    near_box,
    rotation_about_axis,
    rotation_geodesic,
    sqdist,
    sqdist_rows,
    symmetric_chamfer,
    to_json,
    transform_from_dict,
    z_label_values,
)


def brute_chamfer(x: np.ndarray, y: np.ndarray) -> float:
    total = 0.0
    for p in x:
        best = min(float(np.sum((p - q) ** 2)) for q in y)
        total += best
    return total / len(x)


def brute_min_sqdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each x point's min squared distance into y, from explicit differences."""
    return np.min(np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2), axis=1)


def random_labeled_cloud(rng, n, keys=("z",)):
    pts = rng.normal(size=(n, 3))
    labels = {}
    for key in keys:
        values = rng.integers(0, 2, size=n)
        values[0] = 0
        values[-1] = 1
        labels[key] = values
    return PointCloud(pts, labels)


class TestPointCloud:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            PointCloud(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="finite"):
            PointCloud(np.array([[0.0, 0.0, np.nan]]))

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ValueError, match="length"):
            PointCloud(np.zeros((3, 3)), {"z": [0, 1]})
        with pytest.raises(ValueError, match="0 or 1"):
            PointCloud(np.zeros((2, 3)), {"z": [0, 2]})
        with pytest.raises(ValueError, match="0 or 1"):
            PointCloud(np.zeros((2, 3)), {"z": [-1, 1]})

    @pytest.mark.parametrize("bad", [0.5, 1.9, np.nan, np.inf])
    def test_label_value_that_is_not_a_whole_number_is_refused_by_key(self, bad):
        # A file's labels arrive as floats: a fraction is refused, not cut,
        # and NaN raises no cast warning.
        payload = {"points": [[0, 0, 0], [1, 0, 0]], "labels": {"adj:cup": [0, bad]}}
        with pytest.raises(ValueError, match="label 'adj:cup' values must be whole numbers"):
            from_json(PointCloud, payload)
        whole = from_json(PointCloud, {**payload, "labels": {"adj:cup": [0.0, 1.0]}})
        assert whole.label("adj:cup").dtype == np.int64

    def test_label_access_and_keys(self, rng):
        cloud = random_labeled_cloud(rng, 10, keys=("z", "adj:x"))
        assert cloud.label_keys() == ("adj:x", "z")
        assert cloud.label("z").shape == (10,)
        with pytest.raises(KeyError):
            cloud.label("missing")

    def test_subset_carries_labels(self, rng):
        cloud = random_labeled_cloud(rng, 12)
        sub = cloud.subset([0, 3, 5])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.label("z"), cloud.label("z")[[0, 3, 5]])

    def test_extent_is_bbox_diagonal(self):
        cloud = PointCloud(np.array([[0.0, 0, 0], [1, 2, 2]]))
        assert cloud.extent() == pytest.approx(3.0)


class TestRigidTransform:
    def test_validation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError, match="determinant"):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_apply_identity_returns_same_points(self, rng):
        cloud = random_labeled_cloud(rng, 20)
        out = cloud.transformed(RigidTransform.identity())
        np.testing.assert_allclose(out.points, cloud.points, atol=1e-15)
        np.testing.assert_array_equal(out.label("z"), cloud.label("z"))

    def test_apply_translation(self):
        t = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
        out = PointCloud(np.zeros((1, 3))).transformed(t)
        np.testing.assert_allclose(out.points, [[1.0, 0.0, 0.0]])

    def test_apply_quarter_turn(self):
        t = RigidTransform(rotation_about_axis(np.array([0, 0, 1.0]), np.pi / 2), np.zeros(3))
        out = PointCloud(np.array([[1.0, 0.0, 0.0]])).transformed(t)
        np.testing.assert_allclose(out.points, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_compose_with_inverse_is_identity(self, rng):
        t = ps.random_transform(rng)
        ident = t.compose(t.inverse())
        assert rotation_geodesic(ident, RigidTransform.identity()) < 1e-12
        assert np.linalg.norm(ident.translation) < 1e-12

    def test_compose_identity_is_noop(self, rng):
        t = ps.random_transform(rng)
        out = RigidTransform.identity().compose(t)
        np.testing.assert_allclose(out.rotation, t.rotation, atol=1e-15)
        np.testing.assert_allclose(out.translation, t.translation, atol=1e-15)

    def test_compose_matches_sequential_application(self, rng):
        t1, t2 = ps.random_transform(rng), ps.random_transform(rng)
        pts = rng.normal(size=(100, 3))
        np.testing.assert_allclose(
            t1.compose(t2).apply(pts), t1.apply(t2.apply(pts)), atol=1e-12
        )

    def test_rotation_geodesic_recovers_angle(self, rng):
        for angle in (0.0, 0.3, 1.2, np.pi - 1e-6):
            rot = rotation_about_axis(rng.normal(size=3), angle)
            assert rotation_geodesic(rot, np.eye(3)) == pytest.approx(angle, abs=1e-7)

    def test_isometry_property_suite(self):
        assert ps.transform_isometry_suite(n_cases=120) == []


class TestChamfer:
    def test_self_distance_vanishes(self, rng):
        cloud = PointCloud(rng.normal(size=(30, 3)))
        assert 0.0 <= chamfer(cloud, cloud) < 1e-12

    def test_single_pair_squared_distance(self):
        x = PointCloud(np.zeros((1, 3)))
        y = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        assert chamfer(x, y) == pytest.approx(1.0)

    def test_empty_cloud_rejected(self, rng):
        cloud = PointCloud(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError, match="empty cloud"):
            chamfer(cloud, cloud.subset([]))

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            x = rng.normal(size=(int(rng.integers(2, 40)), 3))
            y = rng.normal(size=(int(rng.integers(2, 40)), 3))
            got = chamfer(PointCloud(x), PointCloud(y))
            assert abs(got - brute_chamfer(x, y)) < 1e-10

    def test_matches_brute_force_at_700_points(self, rng):
        # The size range a spatial index once served; the dense block covers it.
        for n, m in ((700, 700), (700, 650), (640, 700)):
            x = rng.normal(size=(n, 3)) * 0.05 + 0.3
            y = rng.normal(size=(m, 3)) * 0.05
            got = chamfer(PointCloud(x), PointCloud(y))
            assert abs(got - brute_min_sqdist(x, y).mean()) < 1e-14

    def test_symmetric_variant_sums_both_directions(self, rng):
        x = PointCloud(rng.normal(size=(15, 3)))
        y = PointCloud(rng.normal(size=(22, 3)))
        assert symmetric_chamfer(x, y) == pytest.approx(chamfer(x, y) + chamfer(y, x))
        assert symmetric_chamfer(x, y) == symmetric_chamfer(y, x)

    def test_nonnegative_and_zero_iff_covered(self, rng):
        x = PointCloud(rng.normal(size=(10, 3)))
        y = PointCloud(np.concatenate([x.points, rng.normal(size=(5, 3))]))
        assert chamfer(x, y) <= 1e-12
        assert chamfer(y, x) > 1e-6


class TestLabeledChamfer:
    def test_self_distance_vanishes(self, rng):
        cloud = random_labeled_cloud(rng, 25)
        assert 0.0 <= labeled_chamfer(cloud, cloud, "z") < 1e-12

    def test_cross_label_matching_forbidden(self):
        x = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]), {"z": [0, 1]})
        y = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]), {"z": [1, 0]})
        assert labeled_chamfer(x, y, "z") == pytest.approx(2.0)

    def test_constant_labels_reduce_to_plain_chamfer(self, rng):
        for _ in range(20):
            x = rng.normal(size=(int(rng.integers(2, 30)), 3))
            y = rng.normal(size=(int(rng.integers(2, 30)), 3))
            lx = PointCloud(x, {"z": np.ones(len(x), dtype=int)})
            ly = PointCloud(y, {"z": np.ones(len(y), dtype=int)})
            assert labeled_chamfer(lx, ly, "z") == chamfer(PointCloud(x), PointCloud(y))

    def test_matches_per_class_brute_force(self, rng):
        for _ in range(100):
            x = random_labeled_cloud(rng, int(rng.integers(4, 30)))
            y = random_labeled_cloud(rng, int(rng.integers(4, 30)))
            expected = 0.0
            for value in (0, 1):
                mx = x.label("z") == value
                my = y.label("z") == value
                if not mx.any():
                    continue
                expected += brute_chamfer(x.points[mx], y.points[my])
            got = labeled_chamfer(x, y, "z")
            assert abs(got - expected) < 1e-10

    def test_matches_per_class_brute_force_at_700_points(self, rng):
        for n, m in ((700, 700), (700, 650)):
            x = random_labeled_cloud(rng, n)
            y = random_labeled_cloud(rng, m)
            expected = 0.0
            for value in (0, 1):
                mx = x.label("z") == value
                my = y.label("z") == value
                expected += brute_min_sqdist(x.points[mx], y.points[my]).mean()
            assert abs(labeled_chamfer(x, y, "z") - expected) < 1e-10

    def test_unmatched_class_rejected(self, rng):
        x = random_labeled_cloud(rng, 10)
        y = PointCloud(rng.normal(size=(8, 3)), {"z": np.zeros(8, dtype=int)})
        with pytest.raises(ValueError, match="unmatched label class"):
            labeled_chamfer(x, y, "z")

    def test_rigid_invariance(self, rng):
        x = random_labeled_cloud(rng, 40)
        y = random_labeled_cloud(rng, 35)
        base = labeled_chamfer(x, y, "z")
        for _ in range(10):
            t = ps.random_transform(rng)
            moved = labeled_chamfer(x.transformed(t), y.transformed(t), "z")
            assert abs(moved - base) < 1e-9


class TestSqdist:
    def test_matches_brute_force(self, rng):
        for scale in (1e-3, 1.0, 1e3):
            for n, m in ((1, 1), (7, 1), (1, 9), (40, 25)):
                a = rng.normal(size=(n, 3)) * scale + scale
                b = rng.normal(size=(m, 3)) * scale
                brute = ((a[:, None] - b[None]) ** 2).sum(-1)
                got = sqdist(a, b)
                assert got.shape == (n, m)
                np.testing.assert_allclose(got, brute, rtol=1e-9, atol=1e-12 * scale**2)

    def test_coincident_points_never_go_negative(self, rng):
        # The GEMM form cancels |a|^2 + |a|^2 - 2 a.a, so a coincident pair
        # leaves a rounding residue of either sign; the negative ones must
        # come back as exactly 0.0 and the rest stay within rounding.
        clamped = 0
        for scale in (1e-3, 1.0, 1e3):
            pts = rng.normal(size=(60, 3)) * scale + 10.0 * scale
            sq = np.einsum("ij,ij->i", pts, pts)
            raw = np.add.outer(sq, sq) - (2.0 * pts) @ pts.T
            d2 = sqdist(pts, pts)
            assert d2.min() >= 0.0
            np.testing.assert_array_equal(d2[raw < 0.0], 0.0)
            assert np.all(np.diag(d2) <= 8.0 * np.finfo(float).eps * sq)
            clamped += int((np.diag(raw) < 0.0).sum())
        assert clamped > 0

    def test_exact_grid_points_give_exact_zero(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [3.0, 0.25, -4.0]])
        d2 = sqdist(pts, pts)
        np.testing.assert_array_equal(np.diag(d2), 0.0)
        assert d2[0, 1] == 5.25


class TestNearBox:
    def test_keeps_every_point_within_radius_of_the_other(self, rng):
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(20):
                a = rng.normal(size=(60, 3)) * scale
                b = rng.normal(size=(50, 3)) * scale + rng.normal(size=3) * 3 * scale
                radius = rng.uniform(0.0, 2.0) * scale
                kept = near_box(a, b, radius)
                assert np.all(np.diff(kept) > 0)
                close = np.flatnonzero((sqdist(a, b) <= radius * radius).any(axis=1))
                assert set(close.tolist()) <= set(kept.tolist())

    def test_drops_points_apart_on_one_axis(self):
        b = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        a = np.array([[0.5, 0.5, 1.3], [0.5, 0.5, 1.1], [0.5, 0.5, -0.05], [2.0, 2.0, 2.0]])
        np.testing.assert_array_equal(near_box(a, b, 0.2), [1, 2])
        assert near_box(a, b, 0.2).dtype == np.int64

    def test_empty_sides_keep_nothing(self):
        pts = np.zeros((4, 3))
        assert near_box(pts, np.empty((0, 3)), 1.0).size == 0
        assert near_box(np.empty((0, 3)), pts, 1.0).size == 0

    def test_pad_covers_rounding_at_zero_radius(self):
        # Far from the origin, sqdist's cancellation can read a pair a hair
        # apart as 0; the pad keeps the point such a pair needs.
        far = np.array([[1e3, 1e3, 1e3]])
        other = far + np.array([[1e-12, 0.0, 0.0]])
        assert sqdist(far, other)[0, 0] == 0.0
        np.testing.assert_array_equal(near_box(far, other, 0.0), [0])


class TestSqdistRows:
    def test_chunks_tile_the_block(self, rng, monkeypatch):
        a = rng.normal(size=(53, 3))
        b = rng.normal(size=(17, 3))
        full = sqdist(a, b)
        for budget in (1, 16, 17, 100, 53 * 17, 10**6):
            monkeypatch.setattr(geom, "CHUNK_ELEMENTS", budget)
            chunks = list(sqdist_rows(a, b))
            rows = max(1, budget // 17)
            assert [start for start, _ in chunks] == list(range(0, 53, rows))
            assert all(block.size <= max(budget, 17) for _, block in chunks)
            tiled = np.concatenate([block for _, block in chunks])
            np.testing.assert_allclose(tiled, full, rtol=0, atol=1e-14)
        # One chunk is the very block.
        np.testing.assert_array_equal(tiled, full)

    def test_empty_query_yields_nothing(self):
        assert list(sqdist_rows(np.empty((0, 3)), np.zeros((4, 3)))) == []


def match(q, ref, columns=None, prepared=None):
    """match_columns from q into ref (or some of its columns), with a fresh output array."""
    if prepared is None:
        prepared = ChamferQuery(q)
    if columns is None:
        columns = np.arange(len(ref))
    nearest = np.empty(len(q), dtype=np.intp)
    return prepared.match_columns(ChamferQuery.fold(ref), columns, nearest), nearest


class TestChamferQuery:
    @staticmethod
    def tolerance(q, r):
        # The prepared GEMM sums |q|^2 + |r|^2 - 2 q.r in another order than
        # sqdist, so the two agree to a few ulps of the larger norms.
        norms = np.einsum("ij,ij->i", q, q).max() + np.einsum("ij,ij->i", r, r).max()
        return 8.0 * np.finfo(float).eps * norms

    def test_matches_brute_force(self, rng):
        for scale in (1e-3, 1.0, 30.0):
            for n, m in ((1, 1), (1, 9), (7, 1), (37, 221), (221, 37)):
                q = rng.normal(size=(n, 3)) * scale + scale
                r = rng.normal(size=(m, 3)) * scale
                d2 = sqdist(q, r)
                want = float(d2.min(axis=1).mean())
                prepared = ChamferQuery(q)
                block, norms = prepared.block(r)
                assert np.abs(block - d2).max() <= self.tolerance(q, r)
                np.testing.assert_array_equal(norms, np.einsum("ij,ij->i", r, r))
                np.testing.assert_array_equal(
                    ChamferQuery.fold(r), np.vstack([r.T, norms, np.ones(m)]))
                got, nearest = match(q, r, prepared=prepared)
                assert isinstance(got, float)
                assert got >= 0.0
                assert abs(got - want) <= self.tolerance(q, r)
                # Where the nearest point is unique beyond the kernels'
                # rounding difference, both kernels pick it.
                ranked = np.sort(d2, axis=1)
                unique = np.ones(n, dtype=bool)
                if m > 1:
                    unique = ranked[:, 1] - ranked[:, 0] > self.tolerance(q, r)
                assert nearest.shape == (n,)
                assert unique.mean() > 0.9
                np.testing.assert_array_equal(nearest[unique], d2.argmin(axis=1)[unique])

    def test_columns_match_their_own_subset(self, rng):
        # Matching some columns of a fold is matching the subset itself, to
        # the bit, with indices into the whole reference set.
        q = rng.normal(size=(37, 3))
        r = rng.normal(size=(221, 3))
        for columns in (np.arange(221), np.flatnonzero(rng.random(221) < 0.3), np.array([5])):
            got, nearest = match(q, r, columns)
            want, want_nearest = match(q, r[columns])
            assert got == want
            np.testing.assert_array_equal(nearest, columns[want_nearest])
            d2 = sqdist(q, r[columns])
            assert abs(got - float(d2.min(axis=1).mean())) <= self.tolerance(q, r)

    def test_coincident_sets_never_go_negative(self, rng):
        for scale in (1e-3, 1.0, 30.0):
            pts = rng.normal(size=(37, 3)) * scale + 10.0 * scale
            got, _ = match(pts, pts)
            assert 0.0 <= got <= self.tolerance(pts, pts)

    def test_reused_buffers_leak_no_state(self, rng):
        q = rng.normal(size=(37, 3))
        a = rng.normal(size=(221, 3))
        b = rng.normal(size=(221, 3)) + 0.5
        small = rng.normal(size=(1, 3))
        prepared = ChamferQuery(q)
        first, first_nearest = match(q, a, prepared=prepared)
        assert match(q, b, prepared=prepared)[0] != first
        again, again_nearest = match(q, a, prepared=prepared)
        assert again == first
        np.testing.assert_array_equal(again_nearest, first_nearest)
        match(q, small, prepared=prepared)
        prepared.block(b)
        assert match(q, a, prepared=prepared)[0] == first
        fresh, fresh_nearest = match(q, a)
        assert fresh == first
        np.testing.assert_array_equal(fresh_nearest, first_nearest)

    def test_empty_sets_rejected(self, rng):
        with pytest.raises(ValueError, match="empty cloud"):
            ChamferQuery(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty cloud"):
            match(rng.normal(size=(4, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty cloud"):
            ChamferQuery(rng.normal(size=(4, 3))).block(np.zeros((0, 3)))


class TestLabelGenerators:
    def test_z_label_marks_lower_half(self):
        pts = np.array([[0, 0, 0.0], [0, 0, 1.0], [0, 0, 4.0]])
        np.testing.assert_array_equal(z_label_values(PointCloud(pts)), [1, 1, 0])

    def test_adjacency_label_marks_relatively_near_points(self):
        # Threshold is ratio times the median nearest-neighbor distance, so
        # the two touching points stand out against the spread-out rest.
        xs = np.array([0.0, 0.5, 3.0, 3.5, 4.0, 4.5, 5.0])
        part = PointCloud(np.stack([xs, np.zeros(7), np.zeros(7)], axis=1))
        other = PointCloud(np.array([[0.0, 0.01, 0], [0.5, 0.01, 0]]))
        values = adjacency_label_values(sqdist(part.points, other.points).min(axis=1), ratio=0.4)
        np.testing.assert_array_equal(values, [1, 1, 0, 0, 0, 0, 0])
        assert values.dtype.kind == "i"


class TestSerialization:
    def test_cloud_round_trip_is_exact(self, rng):
        cloud = random_labeled_cloud(rng, 17, keys=("z", "adj:peg"))
        back = from_json(PointCloud, to_json(cloud))
        np.testing.assert_array_equal(back.points, cloud.points)
        assert back.label_keys() == cloud.label_keys()
        for key in cloud.label_keys():
            np.testing.assert_array_equal(back.label(key), cloud.label(key))

    def test_transform_round_trip_is_exact(self, rng):
        t = ps.random_transform(rng)
        back = transform_from_dict(to_json(t))
        np.testing.assert_array_equal(back.rotation, t.rotation)
        np.testing.assert_array_equal(back.translation, t.translation)


class TestToJson:
    def test_record_keeps_its_field_order(self):
        @dataclass(frozen=True)
        class Record:
            zeta: int
            alpha: str
            mid: float

        assert list(to_json(Record(1, "a", 0.5))) == ["zeta", "alpha", "mid"]

    def test_mapping_is_sorted_by_key_at_every_depth(self):
        value = to_json({"b": 1, "a": {"y": 2, "x": 3}})
        assert list(value) == ["a", "b"]
        assert list(value["a"]) == ["x", "y"]

    def test_tuples_and_arrays_become_lists(self):
        value = to_json((("cup", "peg"), np.array([[1.5, 2.0]]), np.array([3], dtype=np.int64)))
        assert value == [["cup", "peg"], [[1.5, 2.0]], [3]]
        assert type(value[1][0][0]) is float and type(value[2][0]) is int

    def test_transform_is_nine_rotation_entries_row_by_row_and_a_translation(self, rng):
        t = ps.random_transform(rng)
        value = to_json(t)
        assert list(value) == ["rotation", "translation"]
        assert value["rotation"] == [float(v) for v in t.rotation.ravel()]
        assert value["translation"] == [float(v) for v in t.translation]
        assert all(type(v) is float for v in value["rotation"] + value["translation"])

    def test_unlabeled_cloud_is_its_points_alone(self, rng):
        cloud = PointCloud(rng.normal(size=(4, 3)))
        assert cloud.labels == {}
        assert to_json(cloud) == {"points": cloud.points.tolist()}
        assert from_json(PointCloud, to_json(cloud)).labels == {}
        labeled = random_labeled_cloud(rng, 4, keys=("z", "adj:peg"))
        value = to_json(labeled)
        assert list(value) == ["points", "labels"]
        assert list(value["labels"]) == ["adj:peg", "z"]

    def test_none_and_scalars_pass_through(self):
        assert to_json(None) is None
        assert to_json([None, "note", 2, 0.25, True]) == [None, "note", 2, 0.25, True]


@dataclass(frozen=True)
class Inner:
    count: int
    scale: float = 1.0


@dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner
    flag: bool = False
    pairs: Mapping[tuple[str, str], float] = field(default_factory=dict)
    tags: tuple[str, ...] = ()
    note: str | None = None


class TestFromJson:
    def test_inverts_to_json_through_a_file(self):
        value = Outer("a", Inner(3, 0.5), True, {("cup", "peg"): 1.5}, ("x", "y"), "n")
        assert from_json(Outer, json.loads(json.dumps(to_json(value)))) == value

    def test_missing_field_takes_its_default(self):
        assert from_json(Outer, {"name": "a", "inner": {"count": 1}}) == Outer("a", Inner(1))

    def test_unknown_key_names_its_dotted_path(self):
        with pytest.raises(ValueError, match="unknown key inner.foo"):
            from_json(Outer, {"name": "a", "inner": {"count": 1, "foo": 2}})
        with pytest.raises(ValueError, match="unknown config key inner.foo"):
            from_json(Outer, {"name": "a", "inner": {"count": 1, "foo": 2}}, key="config key")

    def test_missing_field_without_a_default_is_refused(self):
        with pytest.raises(TypeError, match="'count'"):
            from_json(Outer, {"name": "a", "inner": {}})

    @pytest.mark.parametrize("path, value", [
        ("inner.count", {"name": "a", "inner": {"count": True}}),
        ("inner.count", {"name": "a", "inner": {"count": 1.5}}),
        ("inner.scale", {"name": "a", "inner": {"count": 1, "scale": False}}),
        ("inner.scale", {"name": "a", "inner": {"count": 1, "scale": "1"}}),
        ("name", {"name": 1, "inner": {"count": 1}}),
        ("flag", {"name": "a", "inner": {"count": 1}, "flag": 0}),
        ("tags.1", {"name": "a", "inner": {"count": 1}, "tags": ["x", 2]}),
        ("inner", {"name": "a", "inner": [1]}),
    ])
    def test_scalar_of_the_wrong_type_names_its_path(self, path, value):
        with pytest.raises(ValueError, match=f"key {path} must be"):
            from_json(Outer, value)

    def test_float_takes_an_integer(self):
        assert from_json(Outer, {"name": "a", "inner": {"count": 1, "scale": 2}}).inner.scale == 2
        # It reads as that float, so 2 and 2.0 are one setting, written alike.
        assert type(from_json(Inner, {"count": 1, "scale": 2}).scale) is float
        assert json.dumps(to_json(from_json(Mapping[str, float], {"x": 3}))) == '{"x": 3.0}'

    def test_record_checks_its_values(self):
        with pytest.raises(ValueError, match="rotation is not orthonormal"):
            from_json(RigidTransform, {"rotation": [2.0] + [0.0] * 8, "translation": [0, 0, 0]})

    def test_tuple_key_is_joined_in_key_order(self):
        # Sorted as tuples: "cup" sorts before "cup_x", though "|" sorts after "_".
        value = to_json({("cup_x", "a"): 2.0, ("cup", "peg"): 1.0})
        assert list(value) == ["cup|peg", "cup_x|a"]
        assert from_json(Mapping[tuple[str, str], float], value) == {
            ("cup", "peg"): 1.0, ("cup_x", "a"): 2.0}

    def test_tuple_key_element_with_a_bar_is_refused(self):
        with pytest.raises(ValueError, match=r"\('a\|b', 'c'\)"):
            to_json({("a|b", "c"): 1.0})

    def test_key_of_another_arity_is_refused(self):
        payload = {"name": "a", "inner": {"count": 1}, "pairs": {"a|b|c": 1.0}}
        with pytest.raises(ValueError, match=r"key pairs\.a\|b\|c must join 2 names"):
            from_json(Outer, payload)
