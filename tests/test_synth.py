"""Tests for the procedural object world: sampling, tasks, views, demos."""

from __future__ import annotations

import json

import numpy as np
import pytest

from partwarp.geom import (
    PointCloud,
    RigidTransform,
    rotation_about_axis,
    symmetric_chamfer,
    to_json,
)
from partwarp.synth import (
    CameraView,
    ParametricObjectSpec,
    default_spec,
    features,
    generate,
    generate_demo_scene,
    goal_transform,
    partial_view,
    penetration_depth,
    sample_spec,
    spec_from_dict,
    task_categories,
    task_predicate,
)


class TestSpecs:
    def test_default_spec_applies_overrides(self):
        spec = default_spec("mug", seed=4, cup_radius=0.05)
        assert spec.params["cup_radius"] == 0.05
        assert spec.seed == 4
        assert spec.part_names() == ("cup", "handle")

    def test_part_names_per_category(self):
        assert default_spec("rack").part_names() == ("base", "trunk", "peg")
        assert default_spec("bowl").part_names() == ("bowl",)
        assert default_spec("teapot").part_names() == ("body", "spout", "handle", "lid")

    def test_unknown_category(self):
        with pytest.raises(ValueError, match="unknown category"):
            ParametricObjectSpec("chair", {})

    def test_missing_and_unknown_parameters(self):
        params = dict(default_spec("mug").params)
        del params["cup_height"]
        with pytest.raises(ValueError, match="missing parameter 'cup_height'"):
            ParametricObjectSpec("mug", params)
        params = dict(default_spec("mug").params)
        params["lid_radius"] = 0.01
        with pytest.raises(ValueError, match="unknown parameter 'lid_radius'"):
            ParametricObjectSpec("mug", params)

    def test_nonfinite_parameter(self):
        with pytest.raises(ValueError, match="finite"):
            default_spec("mug", cup_radius=float("nan"))

    def test_sampling_control_validation(self):
        with pytest.raises(ValueError, match="points_per_part"):
            default_spec("mug", points_per_part=5)
        with pytest.raises(ValueError, match="noise"):
            default_spec("mug", noise=-0.001)

    def test_spec_file_with_a_negative_seed_is_rejected(self):
        payload = {**to_json(default_spec("mug")), "seed": -3}
        with pytest.raises(ValueError, match="seed must be >= 0"):
            spec_from_dict(payload)

    def test_spec_file_with_a_nan_noise_is_rejected(self):
        # json.loads accepts NaN, and NaN > 0 is False, so without the check
        # the cloud would silently come out noise-free.
        payload = json.loads(json.dumps({**to_json(default_spec("mug")), "noise": float("nan")}))
        with pytest.raises(ValueError, match="noise must be finite and >= 0"):
            spec_from_dict(payload)

    def test_validators_name_the_parameter(self):
        with pytest.raises(ValueError, match="cup_radius"):
            default_spec("mug", cup_radius=0.005)
        with pytest.raises(ValueError, match="handle_height"):
            default_spec("mug", handle_height=0.095)
        with pytest.raises(ValueError, match="peg_radius"):
            default_spec("rack", peg_radius=0.02)
        with pytest.raises(ValueError, match="bowl_angle"):
            default_spec("bowl", bowl_angle=2.5)
        with pytest.raises(ValueError, match="lid_radius"):
            default_spec("teapot", lid_radius=0.08)

    def test_sample_spec_is_deterministic_in_rng_state(self):
        a = sample_spec("mug", np.random.default_rng(9), widths=0.2)
        b = sample_spec("mug", np.random.default_rng(9), widths=0.2)
        assert a.params == b.params

    def test_sample_spec_zero_width_returns_defaults(self):
        spec = sample_spec("rack", np.random.default_rng(0), widths=0.0)
        assert spec.params == default_spec("rack").params

    def test_sampled_specs_are_always_valid(self):
        # The clamp step must keep even wide draws inside the validators'
        # joint region; constructing the spec runs the validators. Past a
        # width of about 0.4 some mug draws have a cup too short for the
        # smallest handle opening.
        rng = np.random.default_rng(3)
        for category in ("mug", "rack", "bowl", "teapot"):
            for width in np.linspace(0.1, 0.99, 2000):
                sample_spec(category, rng, widths=width)

    def test_spec_dict_round_trip(self):
        spec = sample_spec("teapot", np.random.default_rng(2), widths=0.15,
                           seed=8, points_per_part=123, noise=0.0005)
        again = spec_from_dict(to_json(spec))
        assert again == spec


class TestGenerate:
    def test_deterministic_for_equal_specs(self):
        spec = default_spec("teapot", seed=21)
        obj_a, sdf_a, _ = generate(spec)
        obj_b, _, _ = generate(spec)
        assert obj_a.part_names() == obj_b.part_names()
        for name in obj_a.part_names():
            np.testing.assert_array_equal(obj_a.parts[name].points, obj_b.parts[name].points)
        probe = np.random.default_rng(0).uniform(-0.2, 0.2, (64, 3))
        np.testing.assert_array_equal(sdf_a(probe), generate(spec)[1](probe))

    def test_each_part_gets_requested_point_count(self):
        for category in ("mug", "rack", "bowl", "teapot"):
            obj, _, _ = generate(default_spec(category, seed=1, points_per_part=137))
            for name in obj.part_names():
                assert len(obj.parts[name]) == 137

    def test_samples_lie_on_their_parts_boundary(self):
        # Each point is drawn on a surface of its own part, so that part's
        # signed distance vanishes there. The union distance can be negative
        # where parts overlap (interfaces are buried), but never positive.
        for category in ("mug", "rack", "bowl", "teapot"):
            obj, sdf, _ = generate(default_spec(category, seed=3))
            for name in obj.part_names():
                values = sdf.part_fns[name](obj.parts[name].points)
                assert np.abs(values).max() < 1e-9
            assert sdf(obj.all_points()).max() < 1e-9

    def test_noise_moves_points_but_stays_near_surface(self):
        clean, _, _ = generate(default_spec("mug", seed=6))
        noisy, sdf, _ = generate(default_spec("mug", seed=6, noise=0.001))
        assert not np.array_equal(clean.parts["cup"].points, noisy.parts["cup"].points)
        for name in noisy.part_names():
            values = sdf.part_fns[name](noisy.parts[name].points)
            assert np.abs(values).max() < 6 * 0.001

    def test_features_equal_the_standalone_entry_point(self):
        # generate and features build the geometry separately; both must
        # give the same landmarks, key for key and bit for bit.
        rng = np.random.default_rng(5)
        for category in ("mug", "rack", "bowl", "teapot"):
            spec = sample_spec(category, rng, widths=0.2)
            got, want = generate(spec)[2], features(spec)
            for kind in ("points", "directions"):
                assert getattr(got, kind).keys() == getattr(want, kind).keys()
                for key, value in getattr(want, kind).items():
                    np.testing.assert_array_equal(getattr(got, kind)[key], value)
            assert got.scalars == want.scalars

    def test_nearby_specs_sample_nearby_clouds(self):
        # One percent parameter changes must produce small chamfer motion,
        # not a full resample; this is what makes family-level statistics
        # (shape models, paired trials) well conditioned. Measured ratios
        # are below 1e-5 of extent for all of these.
        cases = {
            "mug": ("cup_radius", "cup_height"),
            "rack": ("base_radius", "peg_height"),
            "bowl": ("bowl_radius", "bowl_angle"),
            "teapot": ("body_radius", "spout_length"),
        }
        for category, names in cases.items():
            base = default_spec(category, seed=5)
            cloud = PointCloud(generate(base)[0].all_points())
            for pname in names:
                pert = default_spec(category, seed=5, **{pname: base.params[pname] * 1.01})
                other = PointCloud(generate(pert)[0].all_points())
                d = symmetric_chamfer(cloud, other)
                assert d < 0.05 * cloud.extent(), f"{category}.{pname} moved too far"


class TestFeaturesAndTasks:
    def test_task_categories(self):
        assert task_categories("mug_on_rack") == ("mug", "rack")
        assert task_categories("bowl_on_mug") == ("bowl", "mug")
        assert task_categories("teapot_pour_align") == ("teapot", "mug")
        with pytest.raises(ValueError, match="unknown task 'fly'"):
            task_categories("fly")

    def test_goal_transform_rejects_wrong_categories(self):
        with pytest.raises(ValueError, match="expects categories"):
            goal_transform("mug_on_rack", default_spec("bowl"), default_spec("rack"))

    def test_features_transform_covariantly(self):
        spec = default_spec("teapot", seed=2)
        feat = features(spec)
        t = RigidTransform(rotation_about_axis(np.array([0.0, 0.0, 1.0]), 0.7),
                           np.array([0.1, -0.2, 0.05]))
        moved = feat.transformed(t)
        np.testing.assert_allclose(
            moved.points["spout_tip"], t.apply(feat.points["spout_tip"][None])[0], atol=1e-12)
        np.testing.assert_allclose(
            moved.directions["spout_dir"], t.rotation @ feat.directions["spout_dir"], atol=1e-12)
        assert moved.scalars == feat.scalars

    @pytest.mark.parametrize("draw", range(4))
    def test_features_agree_with_the_part_distances(self, draw):
        # Features and signed distances come from one definition of each
        # solid, so every landmark sits where the distances say it does.
        def build(category):
            if draw == 0:
                spec = default_spec(category, points_per_part=20)
            else:
                rng = np.random.default_rng(draw)
                spec = sample_spec(category, rng, widths=0.1, points_per_part=20)
            return spec, features(spec), generate(spec)[1]

        x = np.array([1.0, 0.0, 0.0])
        for category, vessel in (("mug", "cup"), ("teapot", "body")):
            _, feat, sdf = build(category)
            rim = feat.points["rim_center"] + feat.scalars["rim_radius_outer"] * x
            np.testing.assert_allclose(sdf.part_fns[vessel](rim[None]), 0.0, atol=1e-9)

        _, feat, sdf = build("mug")
        on_ring = feat.points["loop_center"] + feat.scalars["loop_ring"] * x
        np.testing.assert_allclose(
            sdf.part_fns["handle"](on_ring[None]), -feat.scalars["loop_tube"], atol=1e-9)

        _, feat, sdf = build("rack")
        length, radius = feat.scalars["peg_length"], feat.scalars["peg_radius"]
        # Past length - radius the tip cap is nearer than the peg wall.
        s = np.linspace(0.1, 0.9, 9) * length
        s = s[s < length - radius]
        axis = feat.points["peg_base"] + s[:, None] * feat.directions["peg_dir"]
        np.testing.assert_allclose(sdf.part_fns["peg"](axis), -radius, atol=1e-9)

        _, feat, sdf = build("teapot")
        np.testing.assert_allclose(
            sdf.part_fns["spout"](feat.points["spout_tip"][None]), 0.0, atol=1e-9)

        spec, feat, sdf = build("bowl")
        alpha = spec.params["bowl_angle"]
        edge = feat.points["sphere_center"] + feat.scalars["radius_outer"] * np.array(
            [np.sin(alpha), 0.0, -np.cos(alpha)])
        np.testing.assert_allclose(sdf.part_fns["bowl"](edge[None]), 0.0, atol=1e-9)

    @pytest.mark.parametrize("task", ["mug_on_rack", "bowl_on_mug", "teapot_pour_align"])
    def test_demo_is_feasible(self, task):
        scene = generate_demo_scene(task)
        goal_points = scene.demo.t_ab.apply(scene.demo.object_a.all_points())
        assert penetration_depth(goal_points, scene.sdf_b) <= 0.001
        goal = scene.demo.t_ab.compose(scene.init_a)
        feat_a = features(scene.spec_a).transformed(goal)
        assert task_predicate(task, feat_a, features(scene.spec_b))

    def test_demo_goal_composition(self):
        scene = generate_demo_scene("mug_on_rack")
        goal = goal_transform("mug_on_rack", scene.spec_a, scene.spec_b)
        combined = scene.demo.t_ab.compose(scene.init_a)
        np.testing.assert_allclose(combined.rotation, goal.rotation, atol=1e-12)
        np.testing.assert_allclose(combined.translation, goal.translation, atol=1e-12)

    @pytest.mark.parametrize("psi", [0.4, -1.1, 2.5])
    def test_hang_goal_follows_a_yawed_peg(self, psi):
        # The rack at peg_angle psi is the psi = 0 rack turned by Rz(psi), so
        # the mug's goal on it is the psi = 0 goal turned the same way.
        mug, rack = default_spec("mug"), default_spec("rack", peg_angle=psi)
        turn = RigidTransform(rotation_about_axis(np.array([0.0, 0.0, 1.0]), psi), np.zeros(3))
        expected = turn.compose(goal_transform("mug_on_rack", mug, default_spec("rack")))
        goal = goal_transform("mug_on_rack", mug, rack)
        np.testing.assert_allclose(goal.rotation, expected.rotation, rtol=0, atol=1e-12)
        np.testing.assert_allclose(goal.translation, expected.translation, rtol=0, atol=1e-12)
        assert task_predicate("mug_on_rack", features(mug).transformed(goal), features(rack))

    def test_small_handle_on_thick_peg_is_infeasible(self):
        mug = default_spec("mug", handle_radius=0.016)
        rack = default_spec("rack", peg_radius=0.0105)
        with pytest.raises(ValueError, match="infeasible pair"):
            goal_transform("mug_on_rack", mug, rack)

    def test_small_bowl_falls_into_mug(self):
        bowl = default_spec("bowl", bowl_radius=0.033)
        with pytest.raises(ValueError, match="infeasible pair"):
            goal_transform("bowl_on_mug", bowl, default_spec("mug"))

    def test_pour_goal_places_spout_tip_over_the_rim(self):
        teapot = default_spec("teapot", seed=4)
        mug = default_spec("mug", seed=5)
        goal = goal_transform("teapot_pour_align", teapot, mug)
        tip = goal.apply(features(teapot).points["spout_tip"][None])[0]
        rim = features(mug).points["rim_center"]
        assert np.linalg.norm(tip[:2] - rim[:2]) <= mug.params["cup_radius"] + 1e-9
        assert rim[2] < tip[2] < rim[2] + 0.05

    def test_penetration_depth(self):
        _, sdf, _ = generate(default_spec("mug", seed=1))
        inside_wall = np.array([[0.038, 0.0, 0.02]])
        assert penetration_depth(inside_wall, sdf) > 0.0005
        assert penetration_depth(np.array([[1.0, 1.0, 1.0]]), sdf) == 0.0


def plane_cloud(n, x, half=0.05):
    side = np.linspace(-half, half, n)
    yy, zz = np.meshgrid(side, side)
    pts = np.column_stack([np.full(n * n, x), yy.ravel(), zz.ravel() + 0.05])
    return PointCloud(pts)


class TestPartialView:
    def test_plane_facing_camera_is_fully_kept(self):
        from partwarp.transfer import PartDecomposedObject

        obj_in = plane_cloud(20, 0.1)
        obj = partial_view(
            PartDecomposedObject("plane", {"sheet": obj_in}),
            CameraView(eye=(-0.5, 0.0, 0.05), target=(0.1, 0.0, 0.05)),
        )
        assert len(obj.parts["sheet"]) == len(obj_in)

    def test_coaxial_far_cloud_is_culled(self):
        from partwarp.transfer import PartDecomposedObject

        near = plane_cloud(30, 0.1)
        far = plane_cloud(10, 0.4)
        stack = PartDecomposedObject("planes", {"near": near, "far": far})
        cam = CameraView(eye=(-0.5, 0.0, 0.05), target=(0.1, 0.0, 0.05),
                         grid_resolution=20, depth_band=0.01)
        with pytest.warns(UserWarning, match="partial view dropped part 'far'"):
            view = partial_view(stack, cam)
        assert view.part_names() == ("near",)

    def test_output_is_a_subset_with_parts_preserved(self):
        obj, _, _ = generate(default_spec("mug", seed=7, points_per_part=800))
        cam = CameraView(eye=(0.4, 0.0, 0.06), target=(0.0, 0.0, 0.04), grid_resolution=12)
        view = partial_view(obj, cam)
        assert view.category == obj.category
        for name in view.part_names():
            original = obj.parts[name].points
            for row in view.parts[name].points[::7]:
                assert (np.abs(original - row).sum(axis=1) < 1e-15).any()
            assert len(view.parts[name]) <= len(original)

    def test_handle_occlusion_ratio(self):
        # Looking at the handle side versus through the cup body. The cup is
        # opaque at this grid resolution, so the away view loses the handle
        # nearly completely (measured: 587 points versus 0).
        obj, _, _ = generate(default_spec("mug", seed=7, points_per_part=800))
        facing = partial_view(
            obj, CameraView(eye=(0.4, 0.0, 0.06), target=(0.0, 0.0, 0.04), grid_resolution=12))
        import warnings as _w
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            away = partial_view(
                obj, CameraView(eye=(-0.4, 0.0, 0.06), target=(0.0, 0.0, 0.04), grid_resolution=12))
        n_facing = len(facing.parts["handle"]) if "handle" in facing.parts else 0
        n_away = len(away.parts["handle"]) if "handle" in away.parts else 0
        assert n_facing >= 5 * max(n_away, 1)

    def test_everything_behind_camera_raises(self):
        obj, _, _ = generate(default_spec("mug", seed=1))
        with pytest.raises(ValueError, match="empty view"):
            partial_view(obj, CameraView(eye=(0.0, 0.0, 1.0), target=(0.0, 0.0, 2.0)))

    def test_camera_validation(self):
        with pytest.raises(ValueError, match="grid_resolution"):
            CameraView(eye=(1.0, 0.0, 0.0), grid_resolution=1)
        with pytest.raises(ValueError, match="depth_band"):
            CameraView(eye=(1.0, 0.0, 0.0), depth_band=0.0)
        obj, _, _ = generate(default_spec("mug", seed=1))
        with pytest.raises(ValueError, match="coincide"):
            partial_view(obj, CameraView(eye=(0.0, 0.0, 0.0), target=(0.0, 0.0, 0.0)))
