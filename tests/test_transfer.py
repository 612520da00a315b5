"""Tests for demonstration processing, relation selection, and placement."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import partwarp
import partwarp.geom as geom
import partwarp.transfer as transfer_module
import propsuites as ps
from partwarp.geom import PointCloud, RigidTransform, from_json, rotation_geodesic, sqdist, to_json
from partwarp.evaluation import ExperimentConfig, train_category_models, trial_scene
from partwarp.registration import CpdConfig
from partwarp.shapemodel import InferenceConfig
from partwarp.synth import (
    CATEGORY_DEFAULTS,
    default_spec,
    features,
    generate,
    generate_demo_scene,
    penetration_depth,
    task_predicate,
)
from partwarp.transfer import (
    Demonstration,
    InteractionPointSet,
    PartDecomposedObject,
    PipelineConfig,
    RelationSet,
    contact_pairs,
    extract_interaction_points,
    fit_parts,
    label_parts,
    merge_object,
    load_demo,
    object_from_dict,
    optimize_placement,
    process_demonstration,
    scene_extent,
    select_demo_relations,
    select_relevant_relations,
    transfer_points,
    transfer_skill,
    whole_object_baseline,
)


class TestObjects:
    def test_requires_at_least_one_part(self):
        with pytest.raises(ValueError, match="at least one part"):
            PartDecomposedObject("mug", {})

    def test_part_names_sorted_and_extent(self, rng):
        a = PointCloud(rng.normal(size=(10, 3)))
        b = PointCloud(rng.normal(size=(12, 3)))
        obj = PartDecomposedObject("toy", {"zed": a, "alpha": b})
        assert obj.part_names() == ("alpha", "zed")
        pts = obj.all_points()
        assert len(pts) == 22
        assert obj.extent() == pytest.approx(
            np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))

    def test_transformed_moves_every_part(self, rng):
        obj = PartDecomposedObject("toy", {"p": PointCloud(rng.normal(size=(8, 3)))})
        t = ps.random_transform(rng)
        np.testing.assert_allclose(
            obj.transformed(t).parts["p"].points, t.apply(obj.parts["p"].points), atol=1e-12)

    def test_interaction_point_set_validation(self, rng):
        good = dict(
            part_m="a", part_n="b",
            pairs=np.array([[0, 1], [1, 2], [2, 0]]),
            displacements_n=np.zeros((3, 3)),
            offsets_m=np.zeros((3, 3)),
            offsets_n=np.zeros((3, 3)),
        )
        InteractionPointSet(**good)
        # A file's pairs read as floats: whole ones are indices, others are refused.
        floats = InteractionPointSet(**{**good, "pairs": good["pairs"].astype(float)})
        assert floats.pairs.dtype == np.int64
        np.testing.assert_array_equal(floats.pairs, good["pairs"])
        with pytest.raises(ValueError, match="at least three"):
            InteractionPointSet(**{**good, "pairs": np.array([[0, 1], [1, 2]]),
                                   "displacements_n": np.zeros((2, 3)),
                                   "offsets_m": np.zeros((2, 3)),
                                   "offsets_n": np.zeros((2, 3))})
        with pytest.raises(ValueError, match="inconsistent"):
            InteractionPointSet(**{**good, "offsets_n": np.zeros((4, 3))})
        for bad in (1.5, np.nan, np.inf):
            pairs = good["pairs"].astype(float)
            pairs[0, 1] = bad
            with pytest.raises(ValueError, match="whole numbers"):
                InteractionPointSet(**{**good, "pairs": pairs})

    def test_scene_extent_is_goal_configuration_diagonal(self, rng):
        obj_a = PartDecomposedObject("toy", {"p": PointCloud(rng.normal(size=(20, 3)))})
        obj_b = PartDecomposedObject("toy", {"q": PointCloud(rng.normal(size=(20, 3)))})
        t = ps.random_transform(rng, translation_scale=2.0)
        demo = Demonstration(obj_a, obj_b, t)
        pts = np.concatenate([t.apply(obj_a.parts["p"].points), obj_b.parts["q"].points])
        assert scene_extent(demo) == pytest.approx(
            np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


class TestLabeling:
    def test_mug_gets_mutual_adjacency_and_height(self):
        obj, _, _ = generate(default_spec("mug", seed=7))
        labeled = label_parts(obj)
        assert labeled.parts["cup"].label_keys() == ("adj:handle", "z")
        assert labeled.parts["handle"].label_keys() == ("adj:cup", "z")
        zc = labeled.parts["cup"].label("z")
        assert set(np.unique(zc)) == {0, 1}

    def test_tiny_adjacency_scale_removes_contacts(self, monkeypatch):
        obj, _, _ = generate(default_spec("mug", seed=7))
        monkeypatch.setattr(transfer_module, "ADJACENCY_SCALE", 1e-6)
        labeled = label_parts(obj)
        assert labeled.parts["cup"].label_keys() == ("z",)
        assert labeled.parts["handle"].label_keys() == ("z",)

    @pytest.mark.parametrize("points", [80, 400, 700])
    @pytest.mark.parametrize("category", ["mug", "rack", "teapot"])
    def test_adjacency_labels_follow_the_per_direction_rule(
        self, category, points, monkeypatch
    ):
        # Brute force from explicit differences: a pair is adjacent when its
        # gap is under ADJACENCY_SCALE x extent, and each side's point is 1
        # when its nearest distance into the other side is under LABEL_RATIO
        # x that side's median nearest distance. At 80 points a touching pair
        # can sample a gap of 6% of the extent, so the scale is 0.08; far
        # pairs (rack base-peg, teapot handle-spout) stay non-adjacent.
        obj, _, _ = generate(default_spec(category, seed=3, points_per_part=points))
        ratio, scale = 0.4, 0.08
        monkeypatch.setattr(transfer_module, "LABEL_RATIO", ratio)
        monkeypatch.setattr(transfer_module, "ADJACENCY_SCALE", scale)
        labeled = label_parts(obj)
        adjacent = 0
        for a, b in itertools.combinations(obj.part_names(), 2):
            pa, pb = obj.parts[a].points, obj.parts[b].points
            dist = np.sqrt(np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=2))
            if dist.min() >= scale * obj.extent():
                assert f"adj:{b}" not in labeled.parts[a].label_keys()
                assert f"adj:{a}" not in labeled.parts[b].label_keys()
                continue
            adjacent += 1
            for part, other, nearest in ((a, b, dist.min(axis=1)), (b, a, dist.min(axis=0))):
                expected = (nearest < ratio * np.median(nearest)).astype(np.int64)
                np.testing.assert_array_equal(labeled.parts[part].label(f"adj:{other}"), expected)
        assert adjacent > 0

    @pytest.mark.parametrize("category", ["mug", "rack", "teapot"])
    def test_chunked_labels_equal_one_block(self, category, monkeypatch):
        obj, _, _ = generate(default_spec(category, seed=3))
        whole = label_parts(obj)
        monkeypatch.setattr(geom, "CHUNK_ELEMENTS", 4096)
        chunked = label_parts(obj)
        for name in obj.part_names():
            assert chunked.parts[name].label_keys() == whole.parts[name].label_keys()
            for key in whole.parts[name].label_keys():
                np.testing.assert_array_equal(
                    chunked.parts[name].label(key), whole.parts[name].label(key))

    @pytest.mark.parametrize("task", ["mug_on_rack", "bowl_on_mug", "teapot_pour_align"])
    def test_labeling_a_subset_matches_the_full_call(self, task):
        demo = generate_demo_scene(task)
        spec_a, spec_b, pose_a, pose_b = trial_scene(ExperimentConfig(task=task), 0)
        trial = (generate(spec_a)[0].transformed(pose_a), generate(spec_b)[0].transformed(pose_b))
        for obj in (demo.object_a, demo.object_b, *trial):
            full = label_parts(obj)
            names = obj.part_names()
            subsets = [None] + [
                set(p) for r in range(1, len(names) + 1) for p in itertools.combinations(names, r)]
            for parts in subsets:
                labeled = label_parts(obj, parts=parts)
                for name in names:
                    got = labeled.parts[name]
                    if parts is None or name in parts:
                        want = full.parts[name]
                        assert got.label_keys() == want.label_keys()
                        for key in want.label_keys():
                            np.testing.assert_array_equal(got.label(key), want.label(key))
                    else:
                        assert got.label_keys() == ("z",)
                        np.testing.assert_array_equal(got.label("z"), full.parts[name].label("z"))

    def test_fit_parts_computes_no_distances_for_pairs_it_does_not_fit(
            self, mug_demo, rack_models, monkeypatch):
        rack = mug_demo.object_b
        names = {id(cloud.points): name for name, cloud in rack.parts.items()}
        seen = []
        real = transfer_module.sqdist_rows

        def recording(a, b):
            seen.append((names.get(id(a)), names.get(id(b))))
            return real(a, b)

        monkeypatch.setattr(transfer_module, "sqdist_rows", recording)
        # The full labeling does reduce the base-trunk block.
        label_parts(rack)
        assert ("base", "trunk") in seen
        seen.clear()
        cfg = InferenceConfig(restarts=1, yaw_init_count=1, max_evals=5)
        fits = fit_parts(rack, rack_models, ["peg"], cfg)
        assert set(fits) == {"peg"}
        assert seen
        assert all("peg" in pair for pair in seen)

    def test_merge_object(self):
        obj, _, _ = generate(default_spec("rack", seed=2, points_per_part=50))
        merged = merge_object(obj)
        assert merged.part_names() == ("whole",)
        assert len(merged.parts["whole"]) == 150
        np.testing.assert_array_equal(merged.parts["whole"].points, obj.all_points())


TEAPOT_PIPELINE = PipelineConfig(
    inference=InferenceConfig(restarts=1, yaw_init_count=2, max_evals=20))


@pytest.fixture(scope="module")
def cheap_teapot_ctx():
    # The contact parts come from geometry alone, so cheap models do.
    cheap = ExperimentConfig(
        train_instances=2, train_points_per_part=40, cpd=CpdConfig(max_iterations=5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        teapot = train_category_models("teapot", 17, cheap)
        mug = train_category_models("mug", 17, cheap)
        demo = generate_demo_scene("teapot_pour_align")
        return process_demonstration(
            demo, select_demo_relations(demo, TEAPOT_PIPELINE), teapot, mug, TEAPOT_PIPELINE)


def candidate_set(demo, models_a, models_b, delta_scale=PipelineConfig().delta_scale,
                  cfg=InferenceConfig(), seed=0):
    """Every contact relation of demo, fitted and grounded as process_demonstration
    fits and grounds the selected ones: (contacts, fits_a, fits_b, interactions)."""
    contacts = contact_pairs(demo, delta_scale * scene_extent(demo))
    fits_a = fit_parts(demo.object_a, models_a, {m for m, _ in contacts}, cfg, seed)
    fits_b = fit_parts(demo.object_b, models_b, {n for _, n in contacts}, cfg, seed)
    interactions = extract_interaction_points(demo, contacts, models_a, models_b, fits_a, fits_b)
    return contacts, fits_a, fits_b, interactions


@pytest.fixture(scope="module")
def mug_candidates(mug_demo, mug_models, rack_models):
    """The mug demo's full candidate set at the default radius: the cup and handle on the peg."""
    return candidate_set(mug_demo, mug_models, rack_models)


def full_block_contacts(demo, delta, k_max):
    """contact_pairs' result from one sqdist block per part pair, no culling."""
    out = {}
    for m in demo.object_a.part_names():
        goal_m = demo.t_ab.apply(demo.object_a.parts[m].points)
        for n in demo.object_b.part_names():
            d2 = sqdist(goal_m, demo.object_b.parts[n].points)
            ii, jj = np.nonzero(d2 <= delta * delta)
            if ii.size >= 3:
                order = np.lexsort((jj, ii, d2[ii, jj]))[:k_max]
                out[(m, n)] = (ii[order], jj[order])
    return out


def assert_same_contacts(got, want):
    assert list(got) == list(want)
    for rel in want:
        for g, w in zip(got[rel], want[rel]):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


def two_part_demo(points_a, points_b):
    return Demonstration(
        PartDecomposedObject("toy", {"p": PointCloud(points_a)}),
        PartDecomposedObject("toy", {"q": PointCloud(points_b)}),
        RigidTransform.identity(),
    )


class TestExtraction:
    @pytest.mark.parametrize("merged", [False, True], ids=["parts", "merged"])
    @pytest.mark.parametrize("task", ["mug_on_rack", "bowl_on_mug", "teapot_pour_align"])
    def test_contacts_equal_a_full_block_search(self, task, merged):
        demo = generate_demo_scene(task)
        if merged:
            demo = Demonstration(
                merge_object(demo.object_a), merge_object(demo.object_b), demo.t_ab)
        delta = PipelineConfig().delta_scale * scene_extent(demo)
        for scale in (1.0, 1.5, 2.0):
            for k_max in (32, 10**6):
                want = full_block_contacts(demo, scale * delta, k_max)
                assert want
                assert_same_contacts(contact_pairs(demo, scale * delta, k_max=k_max), want)

    @staticmethod
    def facing_cubes(rng, axis, gap):
        # Two 10 mm cubes of random points, the second shifted along one
        # axis so that the boxes are `gap` apart, with five points of each
        # facing the other across the gap.
        shift = np.zeros(3)
        shift[axis] = 0.01 + gap
        a = rng.uniform(0.0, 0.01, size=(40, 3))
        b = rng.uniform(0.0, 0.01, size=(40, 3)) + shift
        a[:5] = rng.uniform(0.004, 0.006, size=(5, 3))
        a[:5, axis] = 0.01
        b[:5] = a[:5]
        b[:5, axis] = 0.01 + gap
        return two_part_demo(a, b)

    def test_disjoint_boxes_closer_than_delta_are_kept(self, rng):
        demo = self.facing_cubes(rng, axis=0, gap=0.002)
        want = full_block_contacts(demo, 0.003, 32)
        assert ("p", "q") in want
        assert_same_contacts(contact_pairs(demo, 0.003), want)

    def test_parts_apart_on_one_axis_have_no_contact(self, rng):
        demo = self.facing_cubes(rng, axis=2, gap=0.005)
        assert full_block_contacts(demo, 0.003, 32) == {}
        with pytest.raises(ValueError, match="no interaction found"):
            contact_pairs(demo, 0.003)
        want = full_block_contacts(demo, 0.006, 32)
        assert ("p", "q") in want
        assert_same_contacts(contact_pairs(demo, 0.006), full_block_contacts(demo, 0.006, 32))

    def test_demo_interactions_are_bounded_and_consistent(
            self, mug_ctx, mug_demo, mug_candidates):
        k_max = 32  # contact_pairs' default cut
        assert ("handle", "peg") in mug_ctx.interactions
        demo = mug_demo
        _contacts, _fits_a, fits_b, _interactions = mug_candidates
        contacts = select_demo_relations(demo)[1]
        for (m, n), ips in mug_ctx.interactions.items():
            k = len(ips.pairs)
            assert 3 <= k <= k_max
            ii, jj = contacts[(m, n)]
            pm = demo.object_a.parts[m].points[ii]
            pn = demo.object_b.parts[n].points[jj]
            rot = fits_b[n].pose.rotation
            np.testing.assert_allclose(
                ips.displacements_n, (demo.t_ab.apply(pm) - pn) @ rot, atol=1e-12)

    def test_larger_delta_finds_a_superset(self, mug_demo):
        demo = mug_demo
        delta = 0.02 * scene_extent(demo)
        small = contact_pairs(demo, delta, k_max=10**6)
        large = contact_pairs(demo, 2 * delta, k_max=10**6)
        assert set(small) <= set(large)
        for rel, (ii, jj) in small.items():
            pairs_small = set(zip(ii.tolist(), jj.tolist()))
            pairs_large = set(zip(large[rel][0].tolist(), large[rel][1].tolist()))
            assert pairs_small <= pairs_large

    def test_separated_objects_have_no_interaction(self, mug_demo):
        far = RigidTransform(np.eye(3), np.array([10.0, 0.0, 0.0]))
        demo = Demonstration(mug_demo.object_a, mug_demo.object_b, far)
        with pytest.raises(ValueError, match="no interaction found in demonstration"):
            contact_pairs(demo, 0.02 * scene_extent(mug_demo))

    @staticmethod
    def fitted_parts(task, ctx, monkeypatch):
        """The (category, parts) of each fit_parts call of processing task's demo with
        ctx's models, and the context it gives."""
        demo = generate_demo_scene(task)
        seen = []
        fit_parts = transfer_module.fit_parts

        def recording(obj, models, parts, *args):
            seen.append((obj.category, set(parts)))
            return fit_parts(obj, models, parts, *args)

        monkeypatch.setattr(transfer_module, "fit_parts", recording)
        again = process_demonstration(
            demo, select_demo_relations(demo, TEAPOT_PIPELINE), ctx.models_a, ctx.models_b,
            TEAPOT_PIPELINE)
        return seen, again

    def test_demo_fits_only_the_contact_parts(self, mug_ctx, mug_candidates, monkeypatch):
        # The cup touches the peg too, but only the selected relation's parts
        # are fitted.
        contacts, _fits_a, _fits_b, _interactions = mug_candidates
        assert {m for m, _ in contacts} == {"cup", "handle"}
        fitted, ctx = self.fitted_parts("mug_on_rack", mug_ctx, monkeypatch)
        assert fitted == [("mug", {"handle"}), ("rack", {"peg"})]
        assert ctx.relations.relations == (("handle", "peg"),)
        assert set(ctx.interactions) == {("handle", "peg")}

    def test_teapot_demo_fits_only_the_spout_and_cup(self, cheap_teapot_ctx, monkeypatch):
        fitted, ctx = self.fitted_parts("teapot_pour_align", cheap_teapot_ctx, monkeypatch)
        assert fitted == [("teapot", {"spout"}), ("mug", {"cup"})]
        assert set(ctx.interactions) == {("spout", "cup")}


class TestLargeClouds:
    def test_searches_stay_within_a_memory_bound(self):
        # 20,000 points per part: one full (n, m) block of a part pair would
        # be 3.2 GB, past the child's 1.5 GiB address-space limit, so a
        # search that builds one fails with MemoryError. Chunked, label_parts
        # on the mug and contact_pairs on the mug hung on the rack peak
        # near 170 MB.
        script = textwrap.dedent("""
            import resource
            limit = 1536 << 20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            from partwarp.synth import default_spec, generate, goal_transform
            from partwarp.transfer import (
                Demonstration, PipelineConfig, contact_pairs, label_parts, scene_extent)
            spec_a = default_spec("mug", seed=11, points_per_part=20000)
            spec_b = default_spec("rack", seed=12, points_per_part=20000)
            (mug, _, feat_a), (rack, _, feat_b) = generate(spec_a), generate(spec_b)
            labeled = label_parts(mug)
            assert labeled.parts["cup"].label_keys() == ("adj:handle", "z")
            demo = Demonstration(mug, rack, goal_transform("mug_on_rack", feat_a, feat_b))
            pairs = contact_pairs(demo, PipelineConfig().delta_scale * scene_extent(demo))
            assert ("handle", "peg") in pairs
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >> 10)
        """)
        src = str(Path(partwarp.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stdout.split()[-1])
        assert peak_mb < 400


class TestTransferPoints:
    def test_self_transfer_reproduces_demo_points_exactly(
            self, mug_ctx, mug_demo, mug_candidates, mug_models, rack_models):
        # The canonical-frame residuals are defined so that re-localizing on
        # the same fits returns the original demo points.
        demo = mug_demo
        _contacts, fits_a, fits_b, _interactions = mug_candidates
        contacts = select_demo_relations(demo)[1]
        for (m, n), ips in mug_ctx.interactions.items():
            pm, pn = transfer_points(ips, mug_models[m], fits_a[m], rack_models[n], fits_b[n])
            ii, jj = contacts[(m, n)]
            np.testing.assert_allclose(pm, demo.object_a.parts[m].points[ii], atol=1e-9)
            np.testing.assert_allclose(pn, demo.object_b.parts[n].points[jj], atol=1e-9)

    def test_every_demo_relation_subset_places(self, mug_candidates, mug_models, rack_models):
        # The default-radius cup contact is a single point; alone or with the
        # handle it still yields a placement with a proper rotation.
        _contacts, fits_a, fits_b, interactions = mug_candidates
        bearing = sorted(interactions)
        assert ("cup", "peg") in bearing
        for size in range(1, len(bearing) + 1):
            for subset in itertools.combinations(bearing, size):
                result = optimize_placement(
                    subset, mug_models, rack_models, fits_a, fits_b, interactions)
                rot = result.t_final.rotation
                np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-9)
                assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_per_relation_transform_recovers_demo_goal(
            self, mug_ctx, mug_demo, mug_candidates, mug_models, rack_models):
        # On the demo itself the aligned interaction points reproduce the
        # demonstrated transform for the selected relation. The secondary
        # cup contact is a graze whose point set is too flat to align on
        # its own, which is exactly why selection exists.
        _contacts, fits_a, fits_b, _interactions = mug_candidates
        result = optimize_placement(
            list(mug_ctx.relations.relations), mug_models, rack_models,
            fits_a, fits_b, mug_ctx.interactions)
        t_ab = mug_demo.t_ab
        for rel, t_rel in result.per_relation_transforms.items():
            assert rotation_geodesic(t_rel, t_ab) < 1e-6
            np.testing.assert_allclose(t_rel.translation, t_ab.translation, atol=1e-7)


# The extraction radii, as multiples of the default, at which the clean mug
# demo must still select its hanging relation (ROADMAP item 4).
RADIUS_SCALES = (1.0, 1.15, 1.5, 2.0)


class TestSelection:
    def test_demo_selects_the_hanging_relation(self, mug_ctx):
        assert mug_ctx.relations.relations == (("handle", "peg"),)
        assert mug_ctx.relations.score < 0.01

    def test_demo_selects_the_hanging_relation_at_every_radius(self, mug_demo):
        # A score that only measures replay of the goal fails this from
        # 1.15x the default radius up: there the cup graze spans a plane and
        # pins the goal as well as the handle does, the two tie after
        # rounding, and the earlier subset, the cup's, wins.
        demo = mug_demo
        delta = PipelineConfig().delta_scale * scene_extent(demo)
        chosen = {
            scale: select_relevant_relations(demo, contact_pairs(demo, scale * delta)).relations
            for scale in RADIUS_SCALES
        }
        assert chosen == {scale: (("handle", "peg"),) for scale in RADIUS_SCALES}

    @pytest.mark.parametrize("at", [0.0, 0.37])
    def test_zero_extent_demo_is_refused_before_scoring(self, at):
        # Every point coincides: the scene extent that scales the translation
        # error is 0, although the contact search at radius 0 finds pairs.
        demo = two_part_demo(np.full((4, 3), at), np.full((5, 3), at))
        assert contact_pairs(demo, 0.0)
        with pytest.raises(ValueError, match="zero extent"):
            select_demo_relations(demo)

    def test_single_candidate_is_selected(self, mug_candidates, mug_demo):
        contacts, _fits_a, _fits_b, _interactions = mug_candidates
        only = {("handle", "peg"): contacts[("handle", "peg")]}
        chosen = select_relevant_relations(mug_demo, only)
        assert chosen.relations == (("handle", "peg"),)

    def test_subsets_that_replay_the_goal_tie_and_the_smaller_wins(
            self, mug_candidates, mug_demo, mug_models, rack_models):
        # The hanging contact and the full set both pin the demo goal, so
        # they differ only by rounding; the tie goes to the smaller subset.
        contacts, fits_a, fits_b, interactions = mug_candidates
        demo = mug_demo
        hanging, full = [("handle", "peg")], sorted(interactions)
        assert len(full) > 1
        for subset in (hanging, full):
            t = optimize_placement(
                subset, mug_models, rack_models, fits_a, fits_b, interactions).t_final
            np.testing.assert_allclose(t.rotation, demo.t_ab.rotation, atol=1e-9)
            np.testing.assert_allclose(t.translation, demo.t_ab.translation, atol=1e-9)
        chosen = select_relevant_relations(demo, contacts)
        assert chosen.relations == (("handle", "peg"),)

    @pytest.mark.parametrize("demo", ["mug", "mug_delta_0.03", "teapot"])
    def test_selection_matches_a_full_placement_per_subset(
            self, mug_ctx, mug_demo, cheap_teapot_ctx, monkeypatch, demo):
        # The reference fits and grounds every candidate relation and scores
        # each subset by a whole optimize_placement through those fits.
        # Selection aligns the demo's contact points with their goal
        # positions, the points the fits carry back up to rounding, so it
        # must pick the same subset, at every subset's score to 1e-12.
        ctx = cheap_teapot_ctx if demo == "teapot" else mug_ctx
        shown = generate_demo_scene("teapot_pour_align") if demo == "teapot" else mug_demo
        delta_scale = 0.03 if demo == "mug_delta_0.03" else PipelineConfig().delta_scale
        cfg = TEAPOT_PIPELINE.inference if demo == "teapot" else InferenceConfig()
        contacts, fits_a, fits_b, interactions = candidate_set(
            shown, ctx.models_a, ctx.models_b, delta_scale, cfg)
        bearing, extent = sorted(interactions), scene_extent(shown)

        def score(t):
            trans_err = float(np.linalg.norm(t.translation - shown.t_ab.translation))
            return trans_err / extent + rotation_geodesic(t, shown.t_ab) / np.pi

        subsets = [
            subset for size in range(1, len(bearing) + 1)
            for subset in itertools.combinations(bearing, size)]
        scores = {
            subset: score(optimize_placement(
                subset, ctx.models_a, ctx.models_b, fits_a, fits_b, interactions).t_final)
            for subset in subsets
        }
        best = min(scores, key=lambda subset: (round(scores[subset], 9), len(subset), subset))

        # Selection's transform per subset, in the order it scores them.
        aligned = []
        align = transfer_module._align

        def recording(carried):
            aligned.append(align(carried))
            return aligned[-1]

        monkeypatch.setattr(transfer_module, "_align", recording)
        chosen = select_relevant_relations(shown, contacts)
        assert chosen.relations == best
        assert len(aligned) == len(subsets)
        for subset, t in zip(subsets, aligned):
            assert abs(score(t) - scores[subset]) <= 1e-12, subset
        assert abs(chosen.score - scores[best]) <= 1e-12

    def test_selected_score_not_worse_than_full_set(
            self, mug_ctx, mug_demo, mug_candidates, mug_models, rack_models):
        _contacts, fits_a, fits_b, interactions = mug_candidates
        full = sorted(interactions)
        result = optimize_placement(full, mug_models, rack_models, fits_a, fits_b, interactions)
        demo = mug_demo
        full_score = (
            float(np.linalg.norm(result.t_final.translation - demo.t_ab.translation))
            / scene_extent(demo)
            + rotation_geodesic(result.t_final, demo.t_ab) / np.pi)
        assert mug_ctx.relations.score <= full_score + 1e-12


class TestPlacement:
    def test_recreates_demo_transform(
            self, mug_ctx, mug_demo, mug_candidates, mug_models, rack_models):
        _contacts, fits_a, fits_b, _interactions = mug_candidates
        result = optimize_placement(
            list(mug_ctx.relations.relations), mug_models, rack_models,
            fits_a, fits_b, mug_ctx.interactions)
        demo = mug_demo
        assert rotation_geodesic(result.t_final, demo.t_ab) < np.radians(1.0)
        err = np.linalg.norm(result.t_final.translation - demo.t_ab.translation)
        assert err < 0.01 * scene_extent(demo)
        rel = mug_ctx.relations.relations[0]
        assert rotation_geodesic(result.t_final, result.per_relation_transforms[rel]) < 0.01
        assert set(result.diagnostics) == {m for m, _ in result.relations}
        assert result.objective >= 0.0

    def test_transfer_to_raised_peg_rack(self, mug_ctx, mug_demo):
        # Novel pair: a taller mug with a wider handle, and a rack whose peg
        # sits 4 cm higher. The placement must track the peg, not the demo
        # height, and the transferred contact points must land on the novel
        # surfaces.
        spec_m = default_spec("mug", seed=31, handle_radius=0.036, cup_height=0.095)
        spec_r = default_spec(
            "rack", seed=32, peg_height=CATEGORY_DEFAULTS["rack"]["peg_height"] + 0.04)
        novel_a, sdf_a, _ = generate(spec_m)
        novel_b, sdf_b, _ = generate(spec_r)
        result = transfer_skill(mug_ctx, novel_a, novel_b, seed=0)

        feat_a = features(spec_m).transformed(result.t_final)
        assert task_predicate("mug_on_rack", feat_a, features(spec_r))
        placed = result.t_final.apply(novel_a.all_points())
        assert penetration_depth(placed, sdf_b) <= 0.001
        lift = result.t_final.translation[2] - mug_demo.t_ab.translation[2]
        assert lift > 0.01

        extent = 0.5 * (novel_a.extent() + novel_b.extent())
        # generate's signed distances are in the frame the novel objects are in;
        # the contacts are carried through the fits transfer_skill makes.
        ((m, n),) = result.relations
        pm, pn = transfer_points(
            mug_ctx.interactions[(m, n)],
            mug_ctx.models_a[m], fit_parts(novel_a, mug_ctx.models_a, [m])[m],
            mug_ctx.models_b[n], fit_parts(novel_b, mug_ctx.models_b, [n])[n])
        assert np.abs(sdf_a.part_fns[m](pm)).max() < 0.02 * extent
        assert np.abs(sdf_b.part_fns[n](pn)).max() < 0.02 * extent

    def test_deterministic_result_bytes(self, mug_ctx, mug_demo):
        spec_m = default_spec("mug", seed=41)
        novel_a, _, _ = generate(spec_m)
        runs = []
        for _ in range(2):
            result = transfer_skill(mug_ctx, novel_a, mug_demo.object_b, seed=3)
            runs.append(json.dumps(to_json(result), sort_keys=True))
        assert runs[0] == runs[1]

    def test_missing_part_is_named(self, mug_ctx, mug_demo):
        demo = mug_demo
        ((m, _n),) = mug_ctx.relations.relations
        partial = PartDecomposedObject(
            "mug", {p: c for p, c in demo.object_a.parts.items() if p != m})
        with pytest.raises(ValueError, match=f"'mug' object has no part '{m}'"):
            transfer_skill(mug_ctx, partial, demo.object_b)
        with pytest.raises(ValueError, match=f"no model for part '{m}' of category 'mug'"):
            fit_parts(demo.object_a, {}, parts=[m])


class TestWholeObjectBaseline:
    def test_recovers_demo_on_identical_objects(self, mug_demo, mug_whole_models,
                                                rack_whole_models):
        demo = mug_demo
        merged = Demonstration(merge_object(demo.object_a), merge_object(demo.object_b), demo.t_ab)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ctx = process_demonstration(
                merged, select_demo_relations(merged), mug_whole_models, rack_whole_models, seed=0)
            result = whole_object_baseline(ctx, demo.object_a, demo.object_b, seed=0)
        assert result.relations == (("whole", "whole"),)
        assert rotation_geodesic(result.t_final, demo.t_ab) < np.radians(1.0)
        err = np.linalg.norm(result.t_final.translation - demo.t_ab.translation)
        assert err < 0.005


def assert_same_fields(a, b):
    """Equality through dataclasses and containers, arrays compared exactly."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_same_fields(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, Mapping):
        assert sorted(a) == sorted(b)
        for key in a:
            assert_same_fields(a[key], b[key])
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_fields(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


def context_payload(ctx) -> dict:
    """ctx's interactions and relations as a context file holds them."""
    fields = {"interactions": to_json(ctx.interactions), "relations": to_json(ctx.relations)}
    return json.loads(json.dumps(fields, allow_nan=False))


def context_from_payload(ctx, payload: Mapping):
    """ctx with the interactions and relations read back from payload, as from a context file."""
    return dataclasses.replace(
        ctx,
        interactions=from_json(Mapping[tuple[str, str], InteractionPointSet],
                               payload["interactions"], path="interactions"),
        relations=from_json(RelationSet, payload["relations"], path="relations"),
    )


class TestSerialization:
    def test_object_round_trip(self):
        obj, _, _ = generate(default_spec("mug", seed=9, points_per_part=40))
        labeled = label_parts(obj)
        again = object_from_dict(to_json(labeled))
        assert again.category == labeled.category
        assert again.part_names() == labeled.part_names()
        for name in labeled.part_names():
            np.testing.assert_array_equal(
                again.parts[name].points, labeled.parts[name].points)
            assert again.parts[name].label_keys() == labeled.parts[name].label_keys()

    def test_demo_round_trip_and_file(self, tmp_path, rng):
        obj_a = PartDecomposedObject("toy", {"p": PointCloud(rng.normal(size=(6, 3)))})
        obj_b = PartDecomposedObject("toy", {"q": PointCloud(rng.normal(size=(6, 3)))})
        demo = Demonstration(obj_a, obj_b, ps.random_transform(rng))
        again = from_json(Demonstration, to_json(demo))
        np.testing.assert_array_equal(again.t_ab.rotation, demo.t_ab.rotation)
        np.testing.assert_array_equal(
            again.object_a.parts["p"].points, obj_a.parts["p"].points)
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(to_json(demo)))
        loaded = load_demo(path)
        np.testing.assert_array_equal(loaded.t_ab.translation, demo.t_ab.translation)
        np.testing.assert_array_equal(
            loaded.object_b.parts["q"].points, obj_b.parts["q"].points)

    def test_context_round_trip(self, mug_ctx, mug_demo, cheap_teapot_ctx):
        # The mug's handle|peg context and the teapot's spout|cup one.
        cfg = PipelineConfig(inference=InferenceConfig(restarts=1, yaw_init_count=2, max_evals=40))
        teapot_demo = generate_demo_scene("teapot_pour_align")
        for ctx, demo in ((mug_ctx, mug_demo), (cheap_teapot_ctx, teapot_demo)):
            again = context_from_payload(ctx, context_payload(ctx))
            assert_same_fields(again, ctx)
            results = [
                to_json(transfer_skill(c, demo.object_a, demo.object_b, cfg))
                for c in (ctx, again)
            ]
            assert results[0] == results[1]

    def test_context_interaction_under_another_pair_is_refused(self, mug_ctx):
        payload = context_payload(mug_ctx)
        interactions = payload["interactions"]
        (only,) = list(interactions)
        interactions["cup|peg"] = interactions.pop(only)
        message = re.escape(f"interactions.cup|peg holds the pair {only}")
        with pytest.raises(ValueError, match=message):
            context_from_payload(mug_ctx, payload)

    def test_context_relation_without_interaction_is_refused(self, mug_ctx):
        payload = context_payload(mug_ctx)
        del payload["interactions"]["handle|peg"]
        with pytest.raises(ValueError, match=re.escape("relations name handle|peg")):
            context_from_payload(mug_ctx, payload)

    @pytest.mark.parametrize("side, value", [
        (0, -1), (1, -1), (0, 1000000), (1, 1000000)])
    def test_context_pair_outside_its_model_is_refused(self, mug_ctx, side, value):
        # -1 would index the model's last point, and 1000000 none.
        payload = context_payload(mug_ctx)
        payload["interactions"]["handle|peg"]["pairs"][0][side] = value
        part = ("handle", "peg")[side]
        message = re.escape(f"interactions.handle|peg indexes part {part!r} outside its model's")
        with pytest.raises(ValueError, match=message):
            context_from_payload(mug_ctx, payload)

    def test_context_pair_that_is_not_a_whole_number_is_refused(self, mug_ctx):
        payload = context_payload(mug_ctx)
        payload["interactions"]["handle|peg"]["pairs"][0][0] += 0.5
        with pytest.raises(ValueError, match="whole numbers"):
            context_from_payload(mug_ctx, payload)

    def test_processed_context_obeys_the_same_checks(self, mug_ctx):
        # A context built in memory is checked as one read from a file.
        ips = mug_ctx.interactions[("handle", "peg")]
        pairs = ips.pairs.copy()
        pairs[0, 0] = mug_ctx.models_a["handle"].point_count
        bad = dataclasses.replace(ips, pairs=pairs)
        with pytest.raises(ValueError, match=re.escape("indexes part 'handle' outside")):
            dataclasses.replace(mug_ctx, interactions={("handle", "peg"): bad})
        with pytest.raises(ValueError, match=re.escape("relations name handle|peg")):
            dataclasses.replace(mug_ctx, interactions={})

    def test_result_payload_shape(self, mug_ctx, mug_candidates, mug_models, rack_models):
        _contacts, fits_a, fits_b, _interactions = mug_candidates
        result = optimize_placement(
            list(mug_ctx.relations.relations), mug_models, rack_models,
            fits_a, fits_b, mug_ctx.interactions)
        payload = to_json(result)
        assert set(payload) == {
            "t_final", "relations", "per_relation_transforms", "objective", "diagnostics"}
        json.dumps(payload)


class TestProperties:
    def test_interaction_pair_symmetry(self):
        violations, completed = ps.interaction_symmetry_suite(n_cases=100, seed=3)
        assert completed == 100
        assert violations == []

    def test_placement_is_the_stacked_contact_alignment(self):
        violations = ps.placement_alignment_suite(n_cases=100, seed=4)
        assert violations == []

    def test_decision_equivariance_spot_check(self, mug_ctx):
        cfg = PipelineConfig(inference=InferenceConfig(
            restarts=2, yaw_init_count=4, max_evals=100))

        def draw_scene(rng):
            from partwarp.evaluation import draw_test_pair
            spec_a, spec_b = draw_test_pair(ExperimentConfig(points_per_part=150), rng)
            novel_a = generate(spec_a)[0]
            novel_b = generate(spec_b)[0]
            t = ps.random_yaw_transform(rng, translation_scale=0.2)
            return novel_a.transformed(t), novel_b
        violations = ps.decision_equivariance_suite(mug_ctx, draw_scene, cfg, n_cases=3, seed=5)
        assert violations == []
