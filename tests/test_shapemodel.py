"""Per-part statistical shape models: training, reconstruction, inference."""

import numpy as np
import pytest

import propsuites as ps
from partwarp import shapemodel as sm
from partwarp.geom import (
    PointCloud,
    RigidTransform,
    chamfer,
    from_json,
    labeled_chamfer,
    rotation_about_axis,
    rotation_geodesic,
    symmetric_chamfer,
    to_json,
    z_label_values,
)
from partwarp.registration import CpdConfig, cpd_nonrigid
from partwarp.shapemodel import (
    CanonicalPartModel,
    InferenceConfig,
    infer,
    load_model,
    reconstruct,
    save_model,
    select_canonical,
    train_part_model,
    warp_point_indices,
)
from partwarp.synth import default_spec, generate, sample_spec
from partwarp.transfer import label_parts


def radius_family_cups(count=5, points=200):
    """Mug cups whose only varying parameter is the cup radius.

    The sampling seed is shared across instances so that the displacement
    fields between family members are the pure radial map rather than
    radial map plus resampling noise.
    """
    cups = []
    for k in range(count):
        radius = 0.035 * (1.0 + 0.2 * (k / (count - 1) - 0.5))
        spec = default_spec("mug", seed=50, points_per_part=points, cup_radius=radius)
        obj, _, _ = generate(spec)
        cups.append(obj.parts["cup"])
    return cups


def varied_handles(count, points=150, widths=0.15, rng_seed=7):
    rng = np.random.default_rng(rng_seed)
    handles = []
    for k in range(count):
        spec = sample_spec("mug", rng, widths=widths, seed=400 + k, points_per_part=points)
        obj, _, _ = generate(spec)
        handles.append(obj.parts["handle"])
    return handles


@pytest.fixture(scope="module")
def radius_model():
    cups = radius_family_cups()
    return train_part_model(cups, d=1, part_category="mug/cup"), cups


class TestSelectCanonical:
    def test_identical_clouds_tie_break_to_first(self, rng):
        cloud = PointCloud(rng.normal(size=(20, 3)))
        assert select_canonical([cloud, cloud, cloud]) == 0

    def test_outlier_scale_excluded(self, rng):
        unit = rng.normal(size=(50, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        other = rng.normal(size=(50, 3))
        other /= np.linalg.norm(other, axis=1, keepdims=True)
        clouds = [PointCloud(unit), PointCloud(other), PointCloud(unit * 3.0)]
        assert select_canonical(clouds) in (0, 1)

    def test_matches_brute_force_table(self):
        handles = varied_handles(7)
        table = np.array([
            [sum(symmetric_chamfer(a, b) for b in handles) for a in handles]
        ]).ravel()
        assert select_canonical(handles) == int(np.argmin(table))

    def test_matches_the_ordered_double_loop(self, rng):
        # The reference scores every ordered pair, each unordered pair twice.
        def ordered_double_loop(instances):
            totals = []
            for i, inst in enumerate(instances):
                total = 0.0
                for j, other in enumerate(instances):
                    if i != j:
                        total += symmetric_chamfer(inst, other)
                totals.append(total)
            return int(np.argmin(totals))

        for k in range(2, 9):
            clouds = [PointCloud(rng.normal(size=(int(rng.integers(5, 40)), 3))
                                 * rng.uniform(0.5, 1.5)) for _ in range(k)]
            assert select_canonical(clouds) == ordered_double_loop(clouds)
            repeated = [clouds[0], clouds[1], clouds[0], clouds[1]]
            assert select_canonical(repeated) == ordered_double_loop(repeated)
        handles = varied_handles(7)
        assert select_canonical(handles) == ordered_double_loop(handles)

    def test_needs_two_instances(self, rng):
        with pytest.raises(ValueError):
            select_canonical([PointCloud(rng.normal(size=(5, 3)))])


class TestTrainPartModel:
    def test_identical_instances_collapse_latents(self, rng):
        cloud = PointCloud(rng.normal(size=(40, 3)) * 0.05)
        with pytest.warns(UserWarning, match="5..10"):
            model = train_part_model([cloud] * 3, d=1)
        assert np.linalg.norm(model.training_latents) < 1e-6
        np.testing.assert_allclose(
            reconstruct(model, np.zeros(1)).points, model.canonical.points, atol=1e-12
        )

    def test_copies_of_the_canonical_give_exactly_zero_scales(self):
        # A copy of the canonical's points takes the canonical's zero field.
        # Registered onto the canonical instead, CPD's rounding left latent
        # scales of up to 1e-10 on some of these clouds.
        rng = np.random.default_rng(0)
        for size in range(40, 90):
            cloud = PointCloud(rng.normal(size=(size, 3)) * 0.05)
            with pytest.warns(UserWarning, match="5..10"):
                model = train_part_model([cloud] * 3, d=1)
            assert not model.latent_scales.any(), size
            assert not model.training_latents.any(), size

    def test_instance_count_warning_bounds(self, rng):
        clouds = [PointCloud(rng.normal(size=(30, 3)) * 0.05 + rng.normal(size=3) * 0.01)
                  for _ in range(11)]
        with pytest.warns(UserWarning, match="outside the expected"):
            train_part_model(clouds, d=2)

    def test_canonical_is_not_registered_onto_itself(self, monkeypatch):
        calls = []

        def counting_cpd(source, target, cfg):
            calls.append(target)
            return cpd_nonrigid(source, target, cfg)

        monkeypatch.setattr(sm, "cpd_nonrigid", counting_cpd)
        handles = varied_handles(5, points=60)
        model = train_part_model(handles, d=2)
        canon = select_canonical(handles)
        assert len(calls) == len(handles) - 1
        assert all(target is not handles[canon] for target in calls)
        np.testing.assert_array_equal(model.training_latents[canon], 0.0)
        assert model.training_residuals[canon] == 0.0

    def test_default_latent_dim(self):
        handles = varied_handles(6, points=80)
        model = train_part_model(handles)
        assert model.latent_dim == min(len(handles) - 1, 4)

    def test_radius_only_family_is_one_dimensional(self, radius_model):
        model, _ = radius_model
        assert model.latent_dim == 1
        assert model.explained_variance[0] > 0.95

    def test_degenerate_label_key_dropped(self, rng):
        clouds = []
        for _ in range(5):
            pts = rng.normal(size=(25, 3)) * 0.05
            clouds.append(PointCloud(pts, {"z": z_label_values(PointCloud(pts)),
                                           "adj:x": np.zeros(25, dtype=int)}))
        with pytest.warns(UserWarning, match="degenerate label key"):
            model = train_part_model(clouds, d=1)
        assert model.canonical.label_keys() == ("z",)

    def test_registration_failure_names_instance(self, rng):
        clouds = [PointCloud(rng.normal(size=(20, 3)) * 0.05) for _ in range(4)]
        clouds.append(PointCloud(np.zeros((20, 3))))
        with pytest.raises(RuntimeError, match="instance 4"):
            train_part_model(clouds, d=1)

    def test_basis_columns_orthonormal(self, radius_model):
        model, _ = radius_model
        gram = model.basis.T @ model.basis
        np.testing.assert_allclose(gram, np.eye(model.latent_dim), atol=1e-10)


class TestReconstruct:
    def test_zero_latent_is_canonical(self, radius_model):
        model, _ = radius_model
        recon = reconstruct(model, np.zeros(model.latent_dim))
        np.testing.assert_array_equal(recon.points, model.canonical.points)

    def test_training_latent_within_recorded_residual(self, radius_model):
        model, cups = radius_model
        for j, inst in enumerate(cups):
            field = cpd_nonrigid(model.canonical, inst, model.cpd_config)
            warped = model.canonical.points + field.displacements
            recon = reconstruct(model, model.training_latents[j])
            rms = np.sqrt(np.mean(np.sum((recon.points - warped) ** 2, axis=1)))
            assert rms <= model.training_residuals[j] * (1 + 1e-9) + 1e-15

    def test_interpolation_stays_between_endpoints(self, radius_model):
        model, _ = radius_model
        v_a = model.training_latents[0]
        v_b = model.training_latents[-1]
        a, b = reconstruct(model, v_a), reconstruct(model, v_b)
        mid = reconstruct(model, (v_a + v_b) / 2)
        gap = symmetric_chamfer(a, b)
        assert symmetric_chamfer(mid, a) < gap
        assert symmetric_chamfer(mid, b) < gap

    def test_dimension_mismatch_rejected(self, radius_model):
        model, _ = radius_model
        with pytest.raises(ValueError):
            reconstruct(model, np.zeros(model.latent_dim + 1))

    def test_affine_in_latent(self, radius_model):
        model, _ = radius_model
        rng = np.random.default_rng(3)
        for _ in range(120):
            v1 = rng.normal(size=model.latent_dim) * 0.01
            v2 = rng.normal(size=model.latent_dim) * 0.01
            lhs = (reconstruct(model, v1).points + reconstruct(model, v2).points
                   - reconstruct(model, np.zeros(model.latent_dim)).points)
            rhs = reconstruct(model, v1 + v2).points
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_labels_ride_along_for_all_latents(self, mug_models):
        model = mug_models["handle"]
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = model.latent_mean + model.latent_scales * rng.normal(size=model.latent_dim)
            recon = reconstruct(model, v)
            assert recon.label_keys() == model.canonical.label_keys()
            for key in recon.label_keys():
                np.testing.assert_array_equal(recon.label(key), model.canonical.label(key))


def observed_handle(seed, rng_seed=11, points=300, widths=0.1):
    """A labeled novel handle; density keeps the cup contact findable."""
    rng = np.random.default_rng(rng_seed)
    spec = sample_spec("mug", rng, widths=widths, seed=seed, points_per_part=points)
    obj, _, _ = generate(spec)
    part = label_parts(obj).parts["handle"]
    assert "adj:cup" in part.label_keys(), f"seed {seed} lost the cup contact"
    return part


def world_objective(model, observed, keys, latent, pose, reg):
    """The inference objective, recomputed from its public definition."""
    recon = reconstruct(model, latent)
    posed = recon.transformed(pose)
    obs = observed
    if "z" not in (observed.labels or {}):
        obs = observed.with_labels({"z": z_label_values(observed)})
    total = reg * float(np.sum(((latent - model.latent_mean)
                                / np.maximum(model.latent_scales, 1e-8)) ** 2))
    for key in keys:
        total += labeled_chamfer(obs, posed, key)
    return total


class TestInfer:
    def test_self_fit_recovers_identity(self, mug_models):
        # With no latent regularizer the canonical explains itself exactly,
        # so the optimum is the zero latent at the identity pose; the
        # regularized objective would trade a small pose error against the
        # pull toward the training mean.
        model = mug_models["handle"]
        cfg = InferenceConfig(restarts=1, yaw_init_count=4, max_evals=4000,
                              latent_reg_weight=0.0, step_tolerance=1e-4)
        fit = infer(model, model.canonical, adjacency_keys=("adj:cup",), cfg=cfg, seed=0)
        scale = float(model.latent_scales.mean())
        assert np.linalg.norm(fit.latent) < 0.1 * scale
        assert rotation_geodesic(fit.pose, RigidTransform.identity()) < 1e-3
        extent = model.canonical.extent()
        assert np.linalg.norm(fit.pose.translation) < 1e-3 * extent
        assert fit.objective >= 0.0

    def test_recovers_known_pose(self, mug_models):
        model = mug_models["handle"]
        rng = np.random.default_rng(8)
        for case in range(4):
            observed = observed_handle(seed=900 + case)
            t_true = ps.random_yaw_transform(rng, translation_scale=0.15)
            moved = observed.transformed(t_true)
            base = infer(model, observed, adjacency_keys=("adj:cup",), seed=1)
            fit = infer(model, moved, adjacency_keys=("adj:cup",), seed=1)
            expected = t_true.compose(base.pose)
            extent = observed.extent()
            assert rotation_geodesic(fit.pose, expected) < np.radians(2.0)
            assert np.linalg.norm(fit.pose.translation - expected.translation) < 0.01 * extent

    def test_objective_matches_public_definition(self, mug_models):
        model = mug_models["handle"]
        observed = observed_handle(seed=951)
        keys = ("adj:cup", "z")
        cfg = InferenceConfig(restarts=2, yaw_init_count=4, max_evals=120)
        fit = infer(model, observed, adjacency_keys=("adj:cup",), cfg=cfg, seed=2)
        value = world_objective(model, observed, keys, fit.latent, fit.pose,
                                cfg.latent_reg_weight)
        assert fit.objective == pytest.approx(value, rel=1e-6)

    def test_objective_beats_every_zero_latent_init(self, mug_models):
        model = mug_models["handle"]
        cfg = InferenceConfig(restarts=1, yaw_init_count=6, max_evals=150)
        keys = ("adj:cup", "z")
        for case in range(8):
            observed = observed_handle(seed=710 + case)
            fit = infer(model, observed, adjacency_keys=("adj:cup",), cfg=cfg, seed=3)
            anchor = sm._azimuth_anchor(observed, keys)
            frame = RigidTransform(
                rotation_about_axis(np.array([0.0, 0.0, 1.0]), anchor),
                observed.points.mean(axis=0),
            )
            v0 = np.zeros(model.latent_dim)
            recon_centroid = reconstruct(model, v0).points.mean(axis=0)
            for i in range(cfg.yaw_init_count):
                rot0 = rotation_about_axis(np.array([0.0, 0.0, 1.0]),
                                           2 * np.pi * i / cfg.yaw_init_count)
                init = frame.compose(RigidTransform(rot0, -rot0 @ recon_centroid))
                init_value = world_objective(model, observed, keys, v0, init,
                                             cfg.latent_reg_weight)
                assert fit.objective <= init_value * (1 + 1e-6) + 1e-12

    def test_equivariant_under_scene_motion(self, mug_models):
        # Same property the acceptance suite checks end to end, here at the
        # single-part level: moving the observation conjugates the pose.
        model = mug_models["handle"]
        rng = np.random.default_rng(12)
        cfg = InferenceConfig(restarts=2, yaw_init_count=6, max_evals=150)
        for case in range(6):
            observed = observed_handle(seed=800 + case)
            g = ps.random_yaw_transform(rng, translation_scale=0.2)
            base = infer(model, observed, adjacency_keys=("adj:cup",), cfg=cfg, seed=4)
            moved = infer(model, observed.transformed(g),
                          adjacency_keys=("adj:cup",), cfg=cfg, seed=4)
            expected = g.compose(base.pose)
            assert rotation_geodesic(moved.pose, expected) < np.radians(2.0)
            err = np.linalg.norm(moved.pose.translation - expected.translation)
            assert err < 0.01 * observed.extent()

    def test_deterministic_for_fixed_seed(self, mug_models):
        model = mug_models["handle"]
        observed = observed_handle(seed=960)
        cfg = InferenceConfig(restarts=2, yaw_init_count=4, max_evals=100)
        a = infer(model, observed, adjacency_keys=("adj:cup",), cfg=cfg, seed=5)
        b = infer(model, observed, adjacency_keys=("adj:cup",), cfg=cfg, seed=5)
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.latent, b.latent)
        np.testing.assert_array_equal(a.pose.rotation, b.pose.rotation)
        np.testing.assert_array_equal(a.pose.translation, b.pose.translation)

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("adjacency", [(), ("adj:cup",)])
    def test_tiny_observation_gives_finite_fit(self, mug_models, size, adjacency):
        model = mug_models["handle"]
        observed = observed_handle(seed=951)
        contact = observed.label("adj:cup")
        idx = [np.flatnonzero(contact == 1)[0], *np.flatnonzero(contact == 0)[:size - 1]]
        tiny = observed.subset(idx)
        cfg = InferenceConfig(restarts=1, yaw_init_count=2, max_evals=40)
        fit = infer(model, tiny, adjacency_keys=adjacency, cfg=cfg, seed=0)
        assert np.isfinite(fit.objective)
        assert np.all(np.isfinite(fit.latent))
        value = world_objective(model, tiny, (*adjacency, "z"), fit.latent, fit.pose,
                                cfg.latent_reg_weight)
        assert fit.objective == pytest.approx(value, rel=1e-6)

    def test_reports_evaluations_and_winning_start(self, mug_models):
        model = mug_models["handle"]
        observed = observed_handle(seed=960)
        cfg = InferenceConfig(restarts=1, yaw_init_count=4, max_evals=60)
        a = infer(model, observed, adjacency_keys=("adj:cup",), cfg=cfg, seed=0)
        b = infer(model, observed, adjacency_keys=("adj:cup",), cfg=cfg, seed=0)
        # Correspondence steps reach the tolerance well inside the budget,
        # so the winning start converges and the starts leave evaluations
        # unspent.
        assert a.converged
        assert 4 <= a.evaluations < 240
        assert 0 <= a.start < 4
        assert (a.evaluations, a.start) == (b.evaluations, b.start)

    def test_recovers_exact_reconstruction(self, mug_models):
        # The model reproduces this observation point for point, so the
        # unregularized optimum has zero objective at the true latent and
        # pose.
        model = mug_models["handle"]
        rng = np.random.default_rng(21)
        v_true = model.latent_scales * rng.uniform(-1.0, 1.0, size=model.latent_dim)
        t_true = ps.random_yaw_transform(rng, translation_scale=0.15)
        observed = reconstruct(model, v_true).transformed(t_true)
        cfg = InferenceConfig(restarts=1, yaw_init_count=4, max_evals=60,
                              latent_reg_weight=0.0)
        fit = infer(model, observed, adjacency_keys=("adj:cup",), cfg=cfg, seed=0)
        assert np.all(np.abs(fit.latent - v_true) < 0.05 * model.latent_scales)
        assert rotation_geodesic(fit.pose, t_true) < np.radians(0.5)
        assert fit.objective < 1e-10 * observed.extent() ** 2

    def test_identical_training_instances_give_finite_fit(self, rng):
        # Zero latent scales weigh the prior by reg / 1e-16, which must
        # neither break the step solve nor let the latent move.
        cloud = PointCloud(rng.normal(size=(40, 3)) * 0.05)
        with pytest.warns(UserWarning, match="5..10"):
            model = train_part_model([cloud] * 3, d=1)
        assert not model.latent_scales.any()
        observed = cloud.transformed(ps.random_yaw_transform(rng, translation_scale=0.1))
        cfg = InferenceConfig(restarts=2, yaw_init_count=4, max_evals=60)
        fit = infer(model, observed, cfg=cfg, seed=0)
        assert np.isfinite(fit.objective)
        np.testing.assert_allclose(fit.latent, 0.0, atol=1e-9)

    def test_unmatched_label_class_rejected(self, mug_models):
        model = mug_models["handle"]
        observed = observed_handle(seed=970)
        bad = observed.with_labels({"adj:lid": np.ones(len(observed), dtype=int)})
        with pytest.raises((ValueError, KeyError)):
            infer(model, bad, adjacency_keys=("adj:lid",), seed=0)

    def test_empty_observation_rejected(self, mug_models):
        model = mug_models["handle"]
        empty = model.canonical.subset([])
        with pytest.raises(ValueError, match="empty cloud"):
            infer(model, empty)


class TestWarpPointIndices:
    def make_toy(self, rng):
        return ps.toy_model(rng, n=30, d=1)

    def test_exact_point_maps_to_own_index(self, rng):
        model = self.make_toy(rng)
        fit = ps.toy_fit(rng, model)
        posed = reconstruct(model, fit.latent).transformed(fit.pose)
        idx = warp_point_indices(model, fit, posed.points[[4, 11, 20]])
        np.testing.assert_array_equal(idx, [4, 11, 20])

    def test_equidistant_tie_takes_lower_index(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, 10.0, 0]])
        basis = np.linalg.qr(np.arange(9, dtype=float).reshape(9, 1) + 1.0)[0]
        model = CanonicalPartModel(
            part_category="toy", canonical=PointCloud(pts), basis=basis,
            latent_mean=np.zeros(1), latent_scales=np.ones(1),
            training_latents=np.zeros((5, 1)), training_residuals=np.zeros(5),
            explained_variance=np.ones(1), cpd_config=CpdConfig(),
        )
        fit = sm.InferenceResult(latent=np.zeros(1),
                                 pose=RigidTransform.identity(),
                                 objective=0.0, converged=True)
        idx = warp_point_indices(model, fit, np.array([[0.5, 0.0, 0.0]]))
        assert idx[0] == 0

    def test_round_trip_under_second_latent(self, rng):
        model = self.make_toy(rng)
        fit_a = ps.toy_fit(rng, model)
        fit_b = ps.toy_fit(rng, model)
        posed_a = reconstruct(model, fit_a.latent).transformed(fit_a.pose)
        idx = warp_point_indices(model, fit_a, posed_a.points[:12])
        moved = reconstruct(model, fit_b.latent).transformed(fit_b.pose).points[idx]
        again = warp_point_indices(model, fit_b, moved)
        np.testing.assert_array_equal(again, idx)


class TestModelSerialization:
    def test_dict_round_trip_is_exact(self, mug_models):
        model = mug_models["handle"]
        back = from_json(CanonicalPartModel, to_json(model))
        np.testing.assert_array_equal(back.canonical.points, model.canonical.points)
        np.testing.assert_array_equal(back.basis, model.basis)
        np.testing.assert_array_equal(back.training_latents, model.training_latents)
        assert back.part_category == model.part_category
        assert back.cpd_config == model.cpd_config
        for key in model.canonical.label_keys():
            np.testing.assert_array_equal(
                back.canonical.label(key), model.canonical.label(key)
            )

    @pytest.mark.parametrize("name", ["basis", "latent_scales"])
    def test_non_finite_model_is_rejected(self, mug_models, name):
        payload = to_json(mug_models["handle"])
        values = np.array(payload[name])
        values.flat[0] = np.nan
        payload[name] = values.tolist()
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            from_json(CanonicalPartModel, payload)

    def test_file_round_trip(self, mug_models, tmp_path):
        model = mug_models["cup"]
        save_model(tmp_path / "cup.json", model)
        back = load_model(tmp_path / "cup.json")
        np.testing.assert_array_equal(back.canonical.points, model.canonical.points)
        np.testing.assert_array_equal(back.latent_scales, model.latent_scales)
