"""Randomized property suites shared by module tests and the acceptance run.

Each suite samples seeded random cases and returns a list of violation
strings; an empty list means every case satisfied the property. The one
exception is interaction_symmetry_suite, which returns a (violations,
completed) pair so its caller can put a floor on the cases it compared.
Case counts are parameters so module tests can run the same code the
acceptance suite runs at full batch size.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.spatial.distance import pdist

from partwarp.geom import (
    PointCloud,
    RigidTransform,
    rotation_about_axis,
    rotation_geodesic,
)
from partwarp.registration import CpdConfig, cpd_nonrigid, kabsch
from partwarp.shapemodel import CanonicalPartModel, InferenceResult
from partwarp.transfer import (
    Demonstration,
    InteractionPointSet,
    PartDecomposedObject,
    contact_pairs,
    optimize_placement,
    transfer_skill,
)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rotation_about_axis(axis, rng.uniform(-np.pi, np.pi))


def random_transform(rng: np.random.Generator, translation_scale: float = 0.5) -> RigidTransform:
    return RigidTransform(random_rotation(rng), rng.normal(size=3) * translation_scale)


def random_yaw_transform(rng: np.random.Generator, translation_scale: float = 0.2) -> RigidTransform:
    rot = rotation_about_axis(np.array([0.0, 0.0, 1.0]), rng.uniform(-np.pi, np.pi))
    return RigidTransform(rot, rng.normal(size=3) * translation_scale)


def transform_isometry_suite(n_cases: int = 120, seed: int = 0) -> list[str]:
    """Transforming a cloud preserves pairwise distances to better than 1e-9."""
    violations = []
    for case in range(n_cases):
        rng = np.random.default_rng([seed, case])
        n = int(rng.integers(4, 160))
        cloud = PointCloud(rng.normal(size=(n, 3)) * rng.uniform(0.05, 2.0))
        moved = cloud.transformed(random_transform(rng, translation_scale=2.0))
        gap = float(np.abs(pdist(moved.points) - pdist(cloud.points)).max())
        if gap >= 1e-9:
            violations.append(f"case {case}: distance drift {gap:.3e}")
    return violations


def _cpd_case_clouds(rng: np.random.Generator) -> tuple[PointCloud, PointCloud]:
    n = int(rng.integers(30, 70))
    kind = rng.integers(3)
    if kind == 0:
        src = rng.normal(size=(n, 3)) * 0.4
    elif kind == 1:
        u = rng.uniform(0, 2 * np.pi, size=n)
        src = np.stack([np.cos(u), np.sin(u), 0.2 * u], axis=1)
    else:
        src = rng.uniform(-0.5, 0.5, size=(n, 3))
    extent = src.max(axis=0) - src.min(axis=0)
    amp = rng.uniform(0.0, 0.08) * np.linalg.norm(extent)
    warp = amp * np.sin(src[:, [1, 2, 0]] * rng.uniform(1.0, 3.0))
    m = int(rng.integers(30, 70))
    if rng.integers(4) == 0:
        dst = rng.normal(size=(m, 3)) * 0.4
    else:
        dst = src + warp + rng.normal(size=src.shape) * 0.01
    return PointCloud(src), PointCloud(dst)


def cpd_monotonicity_suite(n_cases: int = 100, seed: int = 1) -> list[str]:
    """The recorded CPD objective never increases between iterations."""
    violations = []
    for case in range(n_cases):
        rng = np.random.default_rng([seed, case])
        src, dst = _cpd_case_clouds(rng)
        cfg = CpdConfig(
            beta=float(rng.uniform(0.3, 2.0)),
            lam=float(rng.uniform(0.5, 4.0)),
            max_iterations=int(rng.integers(12, 35)),
            tolerance=1e-9,
            outlier_weight=float(rng.choice([0.0, 0.1, 0.3])),
        )
        hist = np.asarray(cpd_nonrigid(src, dst, cfg).objective_history)
        slack = 1e-9 * np.maximum(1.0, np.abs(hist[:-1]))
        worst = float((np.diff(hist) - slack).max()) if len(hist) > 1 else -1.0
        if worst > 0:
            violations.append(f"case {case}: objective rose by {worst:.3e}")
    return violations


def toy_model(rng: np.random.Generator, n: int = 40, d: int = 2,
              scale: float = 0.05, category: str = "toy") -> CanonicalPartModel:
    """Small handcrafted shape model with a balanced binary height label."""
    pts = rng.normal(size=(n, 3)) * scale
    z = (pts[:, 2] < np.median(pts[:, 2])).astype(np.int8)
    basis = np.linalg.qr(rng.normal(size=(3 * n, d)))[0]
    latents = rng.normal(size=(5, d)) * scale * 0.2
    return CanonicalPartModel(
        part_category=category,
        canonical=PointCloud(pts, {"z": z}),
        basis=basis,
        latent_mean=latents.mean(axis=0),
        latent_scales=latents.std(axis=0) + 1e-6,
        training_latents=latents,
        training_residuals=np.zeros(5),
        explained_variance=np.full(d, 1.0 / d),
        cpd_config=CpdConfig(),
    )


def toy_fit(rng: np.random.Generator, model: CanonicalPartModel,
            yaw_only: bool = False) -> InferenceResult:
    pose = random_yaw_transform(rng, 0.2) if yaw_only else random_transform(rng, 0.2)
    latent = model.latent_mean + model.latent_scales * rng.normal(size=model.latent_dim)
    return InferenceResult(latent=latent, pose=pose, objective=0.0, converged=True)


def interaction_symmetry_suite(n_cases: int = 100, seed: int = 3) -> tuple[list[str], int]:
    """Swapping the object roles in a demo mirrors every contact pair.

    contact_pairs is run on the demo and on the role-swapped demo (second
    object placed onto the first through the inverse goal transform); the
    raw pair (i, j) must appear swapped as (j, i) and nothing else. Both
    runs use the same fixed radius and no k_max cut. Cases where no contact
    is found (its documented error) are skipped; the second return value
    counts the cases that were compared.
    """
    violations = []
    completed = 0
    delta = 0.012
    for case in range(n_cases):
        rng = np.random.default_rng([seed, case])
        cloud_a = PointCloud(rng.normal(size=(int(rng.integers(30, 60)), 3)) * 0.05)
        t_ab = random_transform(rng, translation_scale=0.4)
        goal_a = t_ab.apply(cloud_a.points)
        touch = rng.choice(len(goal_a), size=int(rng.integers(5, 12)), replace=False)
        near = goal_a[touch] + rng.normal(size=(len(touch), 3)) * (delta / 4)
        far = goal_a.mean(axis=0) + 1.0 + rng.normal(size=(20, 3)) * 0.05
        cloud_b = PointCloud(np.concatenate([near, far]))
        obj_a = PartDecomposedObject("toya", {"pa": cloud_a})
        obj_b = PartDecomposedObject("toyb", {"pb": cloud_b})
        try:
            forward = contact_pairs(Demonstration(obj_a, obj_b, t_ab), delta, k_max=10**6)
            backward = contact_pairs(
                Demonstration(obj_b, obj_a, t_ab.inverse()), delta, k_max=10**6)
        except ValueError as exc:
            if str(exc) != "no interaction found in demonstration":
                raise
            continue
        completed += 1
        fwd = set(zip(*(idx.tolist() for idx in forward[("pa", "pb")])))
        bwd = {(i, j) for j, i in zip(*(idx.tolist() for idx in backward[("pb", "pa")]))}
        if fwd != bwd:
            violations.append(
                f"case {case}: {len(fwd ^ bwd)} unmatched pairs of {len(fwd | bwd)}"
            )
    return violations, completed


def _toy_relation_scene(rng: np.random.Generator, n_relations: int):
    """Models, synthetic fits, and handcrafted interactions for n relations."""
    models_a, models_b, fits_a, fits_b = {}, {}, {}, {}
    interactions, relations = {}, []
    for r in range(n_relations):
        m, n = f"a{r}", f"b{r}"
        models_a[m] = toy_model(rng, n=int(rng.integers(30, 50)))
        models_b[n] = toy_model(rng, n=int(rng.integers(30, 50)))
        fits_a[m] = toy_fit(rng, models_a[m])
        fits_b[n] = toy_fit(rng, models_b[n])
        k = int(rng.integers(4, 12))
        disp = rng.normal(size=(k, 3)) * 0.02
        interactions[(m, n)] = InteractionPointSet(
            part_m=m, part_n=n,
            pairs=np.stack([
                rng.integers(0, models_a[m].point_count, size=k),
                rng.integers(0, models_b[n].point_count, size=k),
            ], axis=1),
            displacements_n=disp @ fits_b[n].pose.rotation,
            offsets_m=rng.normal(size=(k, 3)) * 0.004,
            offsets_n=rng.normal(size=(k, 3)) * 0.004,
            source_indices=np.zeros((k, 2), dtype=np.int64),
        )
        relations.append((m, n))
    return relations, models_a, models_b, fits_a, fits_b, interactions


def _contact_miss(t: RigidTransform, sources: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean(np.sum((t.apply(sources) - targets) ** 2, axis=1)))


def placement_alignment_suite(n_cases: int = 100, seed: int = 4) -> list[str]:
    """The placement is the least-squares alignment of the stacked contacts.

    For each toy scene of one or two relations: t_final equals kabsch on
    every relation's transferred pairs (p_m, p_n + d) stacked; its mean
    squared contact residual, which is the returned objective, is no larger
    than at any per-relation transform; and when the demonstrated offsets
    are rebuilt so that a known rigid motion maps every p_m exactly onto
    p_n + d, that motion comes back to 1e-9.
    """
    violations = []
    for case in range(n_cases):
        rng = np.random.default_rng([seed, case])
        relations, models_a, models_b, fits_a, fits_b, ips = _toy_relation_scene(
            rng, n_relations=int(rng.integers(1, 3)))
        result = optimize_placement(relations, models_a, models_b, fits_a, fits_b, ips)
        sources = np.concatenate([result.transferred[rel][0] for rel in relations])
        targets = np.concatenate([
            result.transferred[(m, n)][1] + ips[(m, n)].displacements_n @ fits_b[n].pose.rotation.T
            for m, n in relations
        ])
        expected = kabsch(sources, targets)
        gap = max(
            float(np.abs(result.t_final.rotation - expected.rotation).max()),
            float(np.abs(result.t_final.translation - expected.translation).max()),
        )
        if gap > 1e-12:
            violations.append(f"case {case}: t_final is {gap:.3e} from the stacked kabsch")
        miss = _contact_miss(result.t_final, sources, targets)
        if abs(miss - result.objective) > 1e-12 * max(1.0, miss):
            violations.append(f"case {case}: objective {result.objective:.6e} is not {miss:.6e}")
        for rel, t_rel in sorted(result.per_relation_transforms.items()):
            other = _contact_miss(t_rel, sources, targets)
            if miss > other * (1 + 1e-9) + 1e-15:
                violations.append(
                    f"case {case}: residual {miss:.6e} exceeds {other:.6e} at {rel}")

        truth = random_transform(rng)
        exact = {}
        for m, n in relations:
            pm, pn = result.transferred[(m, n)]
            disp = truth.apply(pm) - pn
            exact[(m, n)] = dataclasses.replace(
                ips[(m, n)], displacements_n=disp @ fits_b[n].pose.rotation)
        t = optimize_placement(relations, models_a, models_b, fits_a, fits_b, exact).t_final
        err = max(
            float(np.abs(t.rotation - truth.rotation).max()),
            float(np.abs(t.translation - truth.translation).max()),
        )
        if err > 1e-9:
            violations.append(f"case {case}: known motion recovered only to {err:.3e}")
    return violations


def decision_equivariance_suite(ctx, draw_scene, cfg,
                                n_cases: int = 100, seed: int = 5,
                                rot_tol_deg: float = 2.0,
                                trans_tol: float = 0.01) -> list[str]:
    """Transforming a novel scene conjugates the returned placement.

    draw_scene(rng) must return a (novel_a, novel_b) pair; each case is
    solved as drawn and again with both objects moved by a random rigid
    motion of the task plane (yaw plus translation), and the two final
    transforms are compared through the conjugation identity.
    """
    violations = []
    for case in range(n_cases):
        rng = np.random.default_rng([seed, case])
        novel_a, novel_b = draw_scene(rng)
        g = random_yaw_transform(rng, translation_scale=0.3)
        base = transfer_skill(ctx, novel_a, novel_b, cfg, seed=0)
        moved = transfer_skill(ctx, novel_a.transformed(g), novel_b.transformed(g), cfg, seed=0)
        expected = g.compose(base.t_final).compose(g.inverse())
        rot_err = np.degrees(rotation_geodesic(moved.t_final, expected))
        pts = np.concatenate([novel_a.all_points(), novel_b.all_points()])
        extent = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
        trans_err = float(
            np.linalg.norm(moved.t_final.translation - expected.translation)
        ) / extent
        if rot_err > rot_tol_deg or trans_err > trans_tol:
            violations.append(
                f"case {case}: rotation {rot_err:.3f} deg, translation "
                f"{100 * trans_err:.3f}% extent"
            )
    return violations
