"""Rigid and non-rigid registration: kabsch and CPD."""

import numpy as np
import pytest

import propsuites as ps
from partwarp.geom import (
    PointCloud, RigidTransform, chamfer, rotation_about_axis, rotation_geodesic, sqdist,
)
from partwarp.registration import CpdConfig, DisplacementField, cpd_nonrigid, kabsch
from partwarp.synth import generate, sample_spec
from partwarp.transfer import merge_object


def sinusoid_warp(points: np.ndarray, amplitude: float) -> np.ndarray:
    extent = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
    return points + amplitude * extent * np.sin(points[:, [1, 2, 0]] * 2.0)


def dense_cpd(source: PointCloud, target: PointCloud, cfg: CpdConfig = CpdConfig()) -> DisplacementField:
    """Reference CPD with the full M-step: one dense (m, m) solve for W.

    The Gram is built from explicit differences and every E-step quantity
    is reduced afresh, so it shares no shortcut with cpd_nonrigid.
    """
    lo = np.minimum(source.points.min(axis=0), target.points.min(axis=0))
    hi = np.maximum(source.points.max(axis=0), target.points.max(axis=0))
    center, scale = (lo + hi) / 2.0, float(np.linalg.norm(hi - lo))
    s, x = (source.points - center) / scale, (target.points - center) / scale
    m, n = len(s), len(x)
    diff = s[:, None, :] - s[None, :, :]
    g = np.exp(-np.sum(diff**2, axis=2) / (2.0 * cfg.beta**2))
    w = np.zeros((m, 3))
    warped = s.copy()
    sigma2 = max(np.sum((x[:, None, :] - s[None, :, :]) ** 2) / (3.0 * m * n), 1e-12)
    history, best, best_w, converged = [], np.inf, w, False
    mu = cfg.outlier_weight
    for iteration in range(cfg.max_iterations + 1):
        gauss = np.exp(-np.sum((x[:, None, :] - warped[None, :, :]) ** 2, axis=2) / (2.0 * sigma2))
        density = (1 - mu) * (2 * np.pi * sigma2) ** -1.5 / m * gauss.sum(axis=1) + mu / n + 1e-300
        objective = float(-np.log(density).sum() + 0.5 * cfg.lam * np.trace(w.T @ g @ w))
        history.append(objective)
        if objective < best:
            best, best_w = objective, w.copy()
        if iteration == cfg.max_iterations:
            break
        if len(history) > 1 and abs(history[-2] - objective) <= cfg.tolerance * (abs(history[-2]) + 1.0):
            converged = True
            break
        c = (2 * np.pi * sigma2) ** 1.5 * mu / (1 - mu) * m / n
        p = gauss / (gauss.sum(axis=1, keepdims=True) + c)
        p1 = p.sum(axis=0)
        w = np.linalg.solve(g * p1[:, None] + cfg.lam * sigma2 * np.eye(m), p.T @ x - p1[:, None] * s)
        warped = s + g @ w
        sigma2 = max(float(
            np.sum(p.sum(axis=1) * np.sum(x * x, axis=1))
            - 2.0 * np.sum((p.T @ x) * warped)
            + np.sum(p1 * np.sum(warped * warped, axis=1))
        ) / (3.0 * p1.sum()), 1e-12)
    return DisplacementField((g @ best_w) * scale, converged, tuple(history))


def explicit_p_cpd(source: PointCloud, target: PointCloud, cfg: CpdConfig = CpdConfig()) -> DisplacementField:
    """Reference low-rank CPD that forms the responsibilities P explicitly.

    The same eigenbasis M-step as cpd_nonrigid, with an E-step that zeroes
    exponents at or below -690 through a mask, scales every row of the
    Gaussian block into P and reduces P1 and P^T X from P itself.
    """
    lo = np.minimum(source.points.min(axis=0), target.points.min(axis=0))
    hi = np.maximum(source.points.max(axis=0), target.points.max(axis=0))
    center, scale = (lo + hi) / 2.0, float(np.linalg.norm(hi - lo))
    s, x = (source.points - center) / scale, (target.points - center) / scale
    m, n = len(s), len(x)
    eigval, eigvec = np.linalg.eigh(np.exp(-sqdist(s, s) / (2.0 * cfg.beta**2)))
    keep = eigval > 1e-12 * eigval[-1]
    u = eigvec[:, keep] * np.sqrt(eigval[keep])
    k = u.shape[1]
    y = np.zeros((k, 3))
    warped = s
    sigma2 = max(float(sqdist(x, s).sum()) / (3.0 * m * n), 1e-12)
    history, best, best_y, converged = [], np.inf, y, False
    mu = cfg.outlier_weight
    for iteration in range(cfg.max_iterations + 1):
        expo = -sqdist(x, warped) / (2.0 * sigma2)
        gauss = np.exp(np.clip(expo, -690.0, 0.0)) * (expo > -690.0)
        rowsum = gauss.sum(axis=1)
        density = (1 - mu) * (2 * np.pi * sigma2) ** -1.5 / m * rowsum + mu / n + 1e-300
        objective = float(-np.log(density).sum() + 0.5 * cfg.lam * np.sum(y * y))
        history.append(objective)
        if objective < best:
            best, best_y = objective, y.copy()
        if iteration == cfg.max_iterations:
            break
        if len(history) > 1 and abs(history[-2] - objective) <= cfg.tolerance * (abs(history[-2]) + 1.0):
            converged = True
            break
        c = (2 * np.pi * sigma2) ** 1.5 * mu / max(1 - mu, 1e-12) * m / n
        p = gauss / (rowsum + c)[:, None]
        p1, px = p.sum(axis=0), p.T @ x
        if p1.sum() < 1e-12:
            break
        lhs = (u.T * p1) @ u + cfg.lam * sigma2 * np.eye(k)
        y = np.linalg.solve(lhs, u.T @ (px - p1[:, None] * s))
        warped = s + u @ y
        sigma2 = max(float(
            p.sum(axis=1) @ np.sum(x * x, axis=1)
            - 2.0 * np.sum(px * warped)
            + p1 @ np.sum(warped * warped, axis=1)
        ) / (3.0 * p1.sum()), 1e-12)
    return DisplacementField((u @ best_y) * scale, converged, tuple(history))


def bench_sized_pairs(category: str, points: int = 80):
    """(source, target) pairs of centered training clouds, per part and merged."""
    rng = np.random.default_rng(11)
    objs = [generate(sample_spec(category, rng, seed=60 + k, points_per_part=points))[0]
            for k in range(3)]
    pairs = []
    for group in (objs, [merge_object(o) for o in objs]):
        for part in group[0].part_names():
            clouds = [PointCloud(o.parts[part].points - o.parts[part].points.mean(axis=0))
                      for o in group]
            pairs += [(clouds[0], clouds[1]), (clouds[0], clouds[2])]
    return pairs


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

    @pytest.mark.parametrize("category", ["mug", "rack"])
    def test_eigenbasis_m_step_matches_the_dense_solve(self, category):
        for source, target in bench_sized_pairs(category):
            field = cpd_nonrigid(source, target)
            dense = dense_cpd(source, target)
            gap = np.abs(field.displacements - dense.displacements).max()
            assert gap <= 1e-4 * np.abs(dense.displacements).max(), len(source)
            assert len(field.objective_history) == len(dense.objective_history)
            assert field.converged == dense.converged

    @pytest.mark.parametrize("category", ["mug", "rack"])
    def test_matches_the_explicit_responsibility_loop(self, category):
        for source, target in bench_sized_pairs(category):
            field = cpd_nonrigid(source, target)
            oracle = explicit_p_cpd(source, target)
            gap = np.abs(field.displacements - oracle.displacements).max()
            assert gap <= 1e-11 * np.abs(oracle.displacements).max(), len(source)
            assert len(field.objective_history) == len(oracle.objective_history)
            assert field.converged == oracle.converged

    @pytest.mark.parametrize("category", ["mug", "rack"])
    def test_e_step_stays_out_of_float64_underflow(self, category):
        # Late in a fit most exponents -d^2 / (2 sigma^2) lie far below
        # -708. Passed to exp, they leave its fast path and leave subnormal
        # Gaussians that slow every later pass; they must reach the sums as
        # exact zeros instead.
        with np.errstate(under="raise"):
            for source, target in bench_sized_pairs(category):
                cpd_nonrigid(source, target)

    def test_degenerate_sources_give_a_finite_field(self, rng):
        target = PointCloud(rng.normal(size=(30, 3)))
        direction = np.array([0.3, -0.5, 0.8])
        sources = {
            "single point": np.array([[0.1, 0.2, 0.3]]),
            "coincident": np.tile([0.1, 0.2, 0.3], (20, 1)),  # Gram of rank 1
            "collinear": np.outer(np.linspace(-1.0, 1.0, 25), direction),
        }
        for name, points in sources.items():
            field = cpd_nonrigid(PointCloud(points), target)
            assert field.displacements.shape == points.shape, name
            assert np.all(np.isfinite(field.displacements)), name
            assert np.all(np.isfinite(field.objective_history)), name

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
