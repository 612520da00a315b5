"""Rigid and non-rigid registration: kabsch and CPD."""

import numpy as np
import pytest

import propsuites as ps
from partwarp.geom import (
    PointCloud, RigidTransform, chamfer, rotation_about_axis, rotation_geodesic,
)
from partwarp.registration import CpdConfig, cpd_nonrigid, kabsch
from partwarp.synth import generate, sample_spec


def sinusoid_warp(points: np.ndarray, amplitude: float) -> np.ndarray:
    extent = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
    return points + amplitude * extent * np.sin(points[:, [1, 2, 0]] * 2.0)


class TestKabsch:
    def test_identity_on_matching_pairs(self, rng):
        pts = rng.normal(size=(20, 3))
        t = kabsch(pts, pts)
        assert rotation_geodesic(t, RigidTransform.identity()) < 1e-10
        assert np.linalg.norm(t.translation) < 1e-10

    def test_recovers_random_transforms(self, rng):
        for _ in range(50):
            pts = rng.normal(size=(int(rng.integers(3, 40)), 3))
            t_true = ps.random_transform(rng)
            t = kabsch(pts, t_true.apply(pts))
            assert rotation_geodesic(t, t_true) < 1e-9
            assert np.linalg.norm(t.translation - t_true.translation) < 1e-10

    def test_planar_set_yields_proper_rotation(self, rng):
        # A mirror maps this planar set onto itself; the solve must still
        # return det +1 rather than the reflection.
        pts = rng.normal(size=(12, 3))
        pts[:, 2] = 0.0
        mirrored = pts * np.array([1.0, 1.0, -1.0])
        t = kabsch(pts, mirrored)
        assert np.linalg.det(t.rotation) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_sets_have_a_defined_result(self, rng):
        # Two coincident points fix no rotation: the result is a pure
        # translation. A line fixes all but turns about itself: the result
        # is the smallest rotation that lays it on the target line.
        shift = np.array([0.2, -0.4, 0.1])
        t = kabsch(np.zeros((2, 3)), np.zeros((2, 3)) + shift)
        np.testing.assert_array_equal(t.rotation, np.eye(3))
        np.testing.assert_allclose(t.translation, shift, atol=1e-15)
        direction = np.array([1.0, 2.0, 0.5]) / np.linalg.norm([1.0, 2.0, 0.5])
        line = np.outer(np.linspace(0, 1, 8), direction)
        t = kabsch(line, line + 1.0)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.translation, 1.0, atol=1e-12)
        turned = ps.random_transform(rng)
        t = kabsch(line, turned.apply(line))
        np.testing.assert_allclose(t.apply(line), turned.apply(line), atol=1e-9)
        target_dir = turned.rotation @ direction
        assert rotation_geodesic(t, RigidTransform.identity()) == pytest.approx(
            np.arccos(np.clip(direction @ target_dir, -1.0, 1.0)), abs=1e-9)
        for bad in (np.zeros((0, 3)), np.zeros((3, 2))):
            with pytest.raises(ValueError, match="shape"):
                kabsch(bad, bad)
        with pytest.raises(ValueError, match="shape"):
            kabsch(np.zeros((3, 3)), np.zeros((4, 3)))

    def test_pure_translation(self, rng):
        pm = rng.normal(size=(12, 3))
        shift = np.array([0.3, -0.1, 0.25])
        disp = rng.normal(size=(12, 3)) * 0.01
        pn = pm + shift - disp
        t = kabsch(pm, pn + disp)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(t.translation, shift, atol=1e-9)

    def test_already_in_relation_gives_identity(self, rng):
        pm = rng.normal(size=(10, 3))
        disp = rng.normal(size=(10, 3)) * 0.02
        t = kabsch(pm, pm - disp + disp)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(t.translation, 0.0, atol=1e-9)

    def test_single_point_is_a_pure_translation(self, rng):
        # The cross-covariance of a point contact vanishes, so every rotation
        # is a minimizer; the smallest is none at all. Both sides carry
        # rounding noise, as transferred contact points do, and that noise
        # must not pick a rotation.
        offsets = rng.normal(size=(3, 3)) * 0.1
        pm = (rng.normal(size=3) + offsets) - offsets
        target = rng.normal(size=3)
        disp = rng.normal(size=(3, 3)) * 0.02
        t = kabsch(pm, target - disp + disp)
        assert np.linalg.det(t.rotation) == pytest.approx(1.0)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.apply(pm), np.tile(target, (3, 1)), atol=1e-12)

    @pytest.mark.parametrize("reversed_line", [False, True])
    def test_collinear_takes_the_smallest_rotation(self, rng, reversed_line):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        pm = np.outer(rng.normal(size=6), direction) + rng.normal(size=3)
        t_true = ps.random_transform(rng)
        if reversed_line:
            # A half turn about a normal of the line: the line lands on
            # itself reversed, and every minimizer is a half turn.
            half = rotation_about_axis(np.cross(direction, rng.normal(size=3)), np.pi)
            t_true = RigidTransform(half, t_true.translation)
        disp = rng.normal(size=(6, 3)) * 0.02
        target = t_true.apply(pm)
        t = kabsch(pm, target - disp + disp)
        assert np.linalg.det(t.rotation) == pytest.approx(1.0)
        np.testing.assert_allclose(t.apply(pm), target, atol=1e-9)
        # Every other minimizer is this one followed by a turn about the
        # target line; none of them rotates less. The rotation angle falls
        # as the trace grows, and the trace stays well conditioned near pi.
        line = t_true.rotation @ direction
        centroid = target.mean(axis=0)
        for phi in np.linspace(-np.pi, np.pi, 25):
            spin = rotation_about_axis(line, phi)
            other = RigidTransform(spin, centroid - spin @ centroid).compose(t)
            np.testing.assert_allclose(other.apply(pm), target, atol=1e-9)
            assert np.trace(t.rotation) >= np.trace(other.rotation) - 1e-9

    def test_invariant_to_pair_ordering(self, rng):
        pts = rng.normal(size=(25, 3))
        target = ps.random_transform(rng).apply(pts) + rng.normal(size=(25, 3)) * 0.01
        perm = rng.permutation(25)
        t1 = kabsch(pts, target)
        t2 = kabsch(pts[perm], target[perm])
        assert rotation_geodesic(t1, t2) < 1e-9
        np.testing.assert_allclose(t1.translation, t2.translation, atol=1e-9)


class TestCpd:
    def test_identity_registration_is_near_zero(self, rng):
        pts = rng.normal(size=(60, 3))
        cloud = PointCloud(pts)
        field = cpd_nonrigid(cloud, cloud)
        assert np.linalg.norm(field.displacements, axis=1).max() < 1e-3 * cloud.extent()

    def test_field_application_reproduces_self(self, rng):
        cloud = PointCloud(rng.normal(size=(50, 3)))
        warped = cpd_nonrigid(cloud, cloud).apply(cloud)
        drift = np.linalg.norm(warped.points - cloud.points, axis=1).mean()
        assert drift < 1e-3 * cloud.extent()

    def test_recovers_smooth_deformation(self, rng):
        pts = rng.uniform(-0.5, 0.5, size=(120, 3))
        target = sinusoid_warp(pts, 0.05)
        moved = cpd_nonrigid(PointCloud(pts), PointCloud(target)).apply(PointCloud(pts))
        extent = PointCloud(pts).extent()
        rmse = np.sqrt(np.mean(np.sum((moved.points - target) ** 2, axis=1)))
        assert rmse < 0.02 * extent

    def test_improves_procedural_handle_fit(self, rng):
        # The family must be wide enough that the canonical starts well
        # above the resampling floor, otherwise the improvement ratio is
        # capped by sampling noise rather than registration quality.
        handles = []
        for k in range(6):
            spec = sample_spec("mug", rng, widths=0.2, seed=100 + k, points_per_part=300)
            obj, _, _ = generate(spec)
            handles.append(obj.parts["handle"])
        canon = handles[0]
        for target in handles[1:]:
            warped = cpd_nonrigid(canon, target).apply(canon)
            assert chamfer(warped, target) < chamfer(canon, target) / 4

    def test_degenerate_target_rejected(self, rng):
        src = PointCloud(rng.normal(size=(10, 3)))
        dst = PointCloud(np.zeros((10, 3)))
        with pytest.raises(ValueError, match="degenerate target"):
            cpd_nonrigid(src, dst)

    def test_budget_exhaustion_returns_flagged_field(self, rng):
        pts = rng.normal(size=(40, 3))
        target = sinusoid_warp(pts, 0.08)
        field = cpd_nonrigid(
            PointCloud(pts), PointCloud(target), CpdConfig(max_iterations=1)
        )
        assert not field.converged
        assert len(field.objective_history) == 2
        assert np.all(np.isfinite(field.displacements))

    def test_field_size_must_match_cloud(self, rng):
        cloud = PointCloud(rng.normal(size=(30, 3)))
        field = cpd_nonrigid(cloud, cloud)
        with pytest.raises(ValueError, match="size"):
            field.apply(cloud.subset(range(10)))

    def test_objective_monotonicity_suite(self):
        assert ps.cpd_monotonicity_suite(n_cases=100) == []


class TestConfigValidation:
    def test_cpd_config_bounds(self):
        with pytest.raises(ValueError):
            CpdConfig(beta=0.0)
        with pytest.raises(ValueError):
            CpdConfig(outlier_weight=1.0)
        with pytest.raises(ValueError):
            CpdConfig(max_iterations=0)
