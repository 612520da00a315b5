"""Rigid and non-rigid registration: kabsch and CPD."""

import numpy as np
import pytest

import propsuites as ps
from partwarp.geom import PointCloud, RigidTransform, chamfer, rotation_geodesic
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

    def test_degenerate_sets_rejected(self, rng):
        with pytest.raises(ValueError, match="rank-deficient"):
            kabsch(np.zeros((2, 3)), np.zeros((2, 3)))
        line = np.outer(np.linspace(0, 1, 8), np.array([1.0, 2.0, 0.5]))
        with pytest.raises(ValueError, match="rank-deficient"):
            kabsch(line, line + 1.0)

    def test_weights_downweight_outliers(self, rng):
        pts = rng.normal(size=(30, 3))
        t_true = ps.random_transform(rng)
        target = t_true.apply(pts)
        target[0] += 5.0
        weights = np.ones(30)
        weights[0] = 1e-12
        t = kabsch(pts, target, weights)
        assert rotation_geodesic(t, t_true) < 1e-6

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
