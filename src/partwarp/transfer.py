"""One-shot transfer of a demonstrated object-object arrangement.

The pipeline finds the contact point pairs of a single demonstration from
its geometry, fits per-part shape models to the parts those contacts touch,
and grounds the contacts in the models' canonical frames. It re-localizes
them on novel objects through model fits, and places the first object by
the one rigid motion that best aligns those points with their demonstrated
offsets: one kabsch solve over every selected relation's contacts.
Relation selection scores each candidate subset with that same alignment,
on the demonstration itself.
A whole-object variant of the same pipeline (single part, height labels
only) serves as the comparison baseline.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .geom import (
    PointCloud,
    RigidTransform,
    adjacency_label_values,
    cloud_from_dict,
    near_box,
    rotation_geodesic,
    sqdist_rows,
    to_json,
    transform_from_dict,
    z_label_values,
)
from .registration import kabsch
from .shapemodel import (
    Z_KEY,
    CanonicalPartModel,
    InferenceConfig,
    InferenceResult,
    infer,
    inference_from_dict,
    reconstruct,
    warp_point_indices,
)

__all__ = [
    "PartDecomposedObject",
    "Demonstration",
    "InteractionPointSet",
    "RelationSet",
    "TransferResult",
    "PipelineConfig",
    "DemoContext",
    "label_parts",
    "fit_parts",
    "merge_object",
    "contact_pairs",
    "extract_interaction_points",
    "transfer_points",
    "select_relevant_relations",
    "optimize_placement",
    "process_demonstration",
    "transfer_skill",
    "whole_object_baseline",
    "scene_extent",
    "object_from_dict",
    "demo_from_dict",
    "load_demo",
    "context_to_dict",
    "context_from_dict",
    "result_to_dict",
]


@dataclass(frozen=True)
class PartDecomposedObject:
    """A segmented object: named part clouds sharing one world frame."""

    category: str
    parts: Mapping[str, PointCloud]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("object needs at least one part")
        object.__setattr__(self, "parts", dict(self.parts))

    def part_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.parts))

    def all_points(self) -> np.ndarray:
        return np.concatenate([self.parts[p].points for p in self.part_names()])

    def extent(self) -> float:
        pts = self.all_points()
        return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))

    def transformed(self, t: RigidTransform) -> "PartDecomposedObject":
        return PartDecomposedObject(
            self.category,
            {name: cloud.transformed(t) for name, cloud in self.parts.items()},
        )


@dataclass(frozen=True)
class Demonstration:
    """Initial clouds of two objects plus the goal transform of the first."""

    object_a: PartDecomposedObject
    object_b: PartDecomposedObject
    t_ab: RigidTransform


@dataclass(frozen=True)
class InteractionPointSet:
    """Contact pairs for one part pair, grounded in canonical indices.

    displacements_n holds, per pair, the offset from the second object's
    point to the first object's point in the demonstrated goal
    configuration, expressed in part n's canonical frame; a novel fit of
    part n re-expresses it in its own scene, which keeps the replayed
    contact geometry attached to the reference part rather than to the
    demo's world axes. offsets_m
    and offsets_n keep each demo point's residual from its grounding
    point, expressed in the canonical frame, so re-localization is not
    quantized to the model's discrete points. source_indices keeps the
    raw demo cloud indices the pairs came from.
    """

    part_m: str
    part_n: str
    pairs: np.ndarray
    displacements_n: np.ndarray
    offsets_m: np.ndarray
    offsets_n: np.ndarray
    source_indices: np.ndarray

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64)
        k = pairs.shape[0] if pairs.ndim == 2 else 0
        if pairs.ndim != 2 or pairs.shape[1] != 2 or k < 3:
            raise ValueError("need at least three interaction pairs")
        arrays = {"pairs": pairs, "source_indices": np.asarray(self.source_indices, np.int64)}
        for name in ("displacements_n", "offsets_m", "offsets_n"):
            arrays[name] = np.asarray(getattr(self, name), dtype=np.float64)
            if arrays[name].shape != (k, 3):
                raise ValueError("inconsistent interaction point arrays")
        if arrays["source_indices"].shape != (k, 2):
            raise ValueError("inconsistent interaction point arrays")
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class RelationSet:
    relations: tuple[tuple[str, str], ...]
    score: float


@dataclass(frozen=True)
class TransferResult:
    t_final: RigidTransform
    per_relation_transforms: Mapping[tuple[str, str], RigidTransform]
    objective: float
    relations: tuple[tuple[str, str], ...]
    diagnostics: Mapping[str, float]
    transferred: Mapping[tuple[str, str], tuple[np.ndarray, np.ndarray]] | None = None


@dataclass(frozen=True)
class PipelineConfig:
    delta_scale: float = 0.02
    inference: InferenceConfig = field(default_factory=InferenceConfig)

    def __post_init__(self):
        if self.delta_scale <= 0:
            raise ValueError("delta_scale must be positive")


# Selection scores all 2^n - 1 subsets of the n contact-bearing part pairs;
# a demo read from a file can carry any number of them.
_MAX_RELATIONS = 12


@dataclass(frozen=True)
class DemoContext:
    """Everything derived from one demonstration, reusable across scenes.

    models_a and models_b are the part models the demo was processed with,
    and every transfer of the context fits the novel objects with them.
    fits_a and fits_b cover only the parts that take part in a contact, the
    parts that interactions and relations can name.
    """

    demo: Demonstration
    models_a: Mapping[str, CanonicalPartModel]
    models_b: Mapping[str, CanonicalPartModel]
    fits_a: Mapping[str, InferenceResult]
    fits_b: Mapping[str, InferenceResult]
    interactions: Mapping[tuple[str, str], InteractionPointSet]
    relations: RelationSet


def scene_extent(demo: Demonstration) -> float:
    """Bounding-box diagonal of the demo scene in its goal configuration."""
    goal_a = demo.object_a.transformed(demo.t_ab)
    pts = np.concatenate([goal_a.all_points(), demo.object_b.all_points()])
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def label_parts(
    obj: PartDecomposedObject,
    ratio: float = 0.4,
    adjacency_scale: float = 0.02,
    parts: Collection[str] | None = None,
) -> PartDecomposedObject:
    """Attach height labels and relational labels between adjacent parts.

    Two parts are adjacent when their closest points come within
    adjacency_scale times the object extent. Every part receives the
    height key; each adjacent pair receives mutual adj:<other> keys.
    Training and transfer both label with the defaults, so a model's
    label keys always match the keys of the clouds it is fitted to.

    parts, if given, names the parts whose labels the caller reads, such as
    the parts a fit will fit: each of them gets exactly the labels of the
    full call, and every other part the height key only. Pairs of two
    unnamed parts are skipped, and in a pair with one named part only that
    side's nearest distances are reduced.

    A box pre-test skips a pair outright when no point of the first part
    lies inside the second's bounding box padded by the threshold
    (geom.near_box): such parts cannot be adjacent. A kept pair's distances
    are reduced chunk by chunk (geom.sqdist_rows), so memory stays bounded
    at any number of points per part.
    """
    names = obj.part_names()
    wanted = set(names) if parts is None else set(parts)
    threshold = adjacency_scale * obj.extent()
    labeled: dict[str, dict[str, np.ndarray]] = {name: {} for name in names}
    for name in names:
        labeled[name][Z_KEY] = z_label_values(obj.parts[name])
    for a, b in itertools.combinations(names, 2):
        want_a, want_b = a in wanted, b in wanted
        if not (want_a or want_b):
            continue
        pts_a, pts_b = obj.parts[a].points, obj.parts[b].points
        if near_box(pts_a, pts_b, threshold).size == 0:
            continue
        # Each wanted side's nearest squared distances into the other: row
        # minima per chunk for a, running column minima for b. Either side's
        # minimum is the block's, the gap.
        near_a = np.empty(len(pts_a)) if want_a else None
        near_b = np.full(len(pts_b), np.inf) if want_b else None
        for start, d2 in sqdist_rows(pts_a, pts_b):
            if want_a:
                near_a[start:start + len(d2)] = d2.min(axis=1)
            if want_b:
                np.minimum(near_b, d2.min(axis=0), out=near_b)
        gap2 = near_a.min() if want_a else near_b.min()
        if float(np.sqrt(gap2)) < threshold:
            if want_a:
                labeled[a][f"adj:{b}"] = adjacency_label_values(near_a, ratio)
            if want_b:
                labeled[b][f"adj:{a}"] = adjacency_label_values(near_b, ratio)
    return PartDecomposedObject(
        obj.category,
        {name: obj.parts[name].with_labels(labeled[name]) for name in names},
    )


def merge_object(obj: PartDecomposedObject) -> PartDecomposedObject:
    """Collapse an object to a single unlabeled part named 'whole'."""
    return PartDecomposedObject(obj.category, {"whole": PointCloud(obj.all_points())})


def _part_seed(seed: int, name: str) -> int:
    # Seeds depend on the part name only, never on which object or scene the
    # part came from, so fitting the same cloud twice gives the same answer.
    digest = sum(ord(c) * (i + 1) for i, c in enumerate(name))
    return int(np.random.SeedSequence((seed, digest)).generate_state(1)[0])


def fit_parts(
    obj: PartDecomposedObject,
    models: Mapping[str, CanonicalPartModel],
    parts: Collection[str],
    cfg: InferenceConfig = InferenceConfig(),
    seed: int = 0,
) -> dict[str, InferenceResult]:
    """Label the named parts of an object with label_parts, then fit each with its model.

    Only the named parts' labels are computed (label_parts' parts), since a
    fit reads its own part's labels alone.
    """
    obj = label_parts(obj, parts=parts)
    out: dict[str, InferenceResult] = {}
    for name in sorted(parts):
        if name not in obj.parts:
            raise ValueError(f"{obj.category!r} object has no part {name!r}")
        if name not in models:
            raise ValueError(f"no model for part {name!r} of category {obj.category!r}")
        model = models[name]
        cloud = obj.parts[name]
        keys = sorted(
            (set(model.canonical.label_keys()) & set(cloud.label_keys())) - {Z_KEY}
        )
        out[name] = infer(model, cloud, keys, cfg, seed=_part_seed(seed, name))
    return out


def contact_pairs(
    demo: Demonstration, delta: float, k_max: int = 32
) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
    """Raw contact point pairs of the demonstrated goal, per part pair.

    For every cross-object part pair (m, n), all point pairs closer than
    delta in the goal configuration are found and the k_max closest kept,
    as index arrays (ii into part m of object a, jj into part n of object
    b), ordered by distance, then ii, then jj; part pairs with fewer than
    three hits carry no interaction and are left out. This needs the
    demo's geometry only, no models or fits.

    Only points inside the other part's bounding box padded by delta
    (geom.near_box) can pair, so only their distances are computed, in
    bounded row chunks (geom.sqdist_rows). BLAS may round an entry of such
    a smaller block an ulp of the squared norms away from the same entry
    of the whole part pair's block, so the result equals the whole-block
    search unless two distances tie, or one meets delta**2, to that ulp.
    """
    out: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
    for m in demo.object_a.part_names():
        goal_m = demo.t_ab.apply(demo.object_a.parts[m].points)
        for n in demo.object_b.part_names():
            pts_n = demo.object_b.parts[n].points
            ia = near_box(goal_m, pts_n, delta)
            jb = near_box(pts_n, goal_m[ia], delta)
            # ia and jb increase, so hits map back to full indices in
            # row-major order.
            hits = []
            for start, block in sqdist_rows(goal_m[ia], pts_n[jb]):
                i, j = np.nonzero(block <= delta * delta)
                hits.append((ia[start + i], jb[j], block[i, j]))
            if sum(len(h[0]) for h in hits) < 3:
                continue
            ii, jj, d2 = (np.concatenate(col) for col in zip(*hits))
            order = np.lexsort((jj, ii, d2))[:k_max]
            out[(m, n)] = (ii[order], jj[order])
    if not out:
        raise ValueError("no interaction found in demonstration")
    return out


def extract_interaction_points(
    demo: Demonstration,
    contacts: Mapping[tuple[str, str], tuple[np.ndarray, np.ndarray]],
    models_a: Mapping[str, CanonicalPartModel],
    models_b: Mapping[str, CanonicalPartModel],
    fits_a: Mapping[str, InferenceResult],
    fits_b: Mapping[str, InferenceResult],
) -> dict[tuple[str, str], InteractionPointSet]:
    """Ground each contact pair set of contact_pairs in its parts' models.

    Each raw point goes to the canonical index its part's fit warps
    nearest to it, plus the canonical-frame residual from that point; the
    demonstrated offset between the two points is kept in part n's frame.
    """
    out: dict[tuple[str, str], InteractionPointSet] = {}
    for (m, n), (ii, jj) in sorted(contacts.items()):
        cloud_m, cloud_n = demo.object_a.parts[m], demo.object_b.parts[n]
        ci = warp_point_indices(models_a[m], fits_a[m], cloud_m.points[ii])
        cj = warp_point_indices(models_b[n], fits_b[n], cloud_n.points[jj])
        canon_m = reconstruct(models_a[m], fits_a[m].latent).points
        canon_n = reconstruct(models_b[n], fits_b[n].latent).points
        off_m = fits_a[m].pose.inverse().apply(cloud_m.points[ii]) - canon_m[ci]
        off_n = fits_b[n].pose.inverse().apply(cloud_n.points[jj]) - canon_n[cj]
        displacements = demo.t_ab.apply(cloud_m.points)[ii] - cloud_n.points[jj]
        out[(m, n)] = InteractionPointSet(
            part_m=m,
            part_n=n,
            pairs=np.stack([ci, cj], axis=1),
            displacements_n=displacements @ fits_b[n].pose.rotation,
            offsets_m=off_m,
            offsets_n=off_n,
            source_indices=np.stack([ii, jj], axis=1),
        )
    return out


def transfer_points(
    ips: InteractionPointSet,
    model_m: CanonicalPartModel,
    fit_m: InferenceResult,
    model_n: CanonicalPartModel,
    fit_n: InferenceResult,
) -> tuple[np.ndarray, np.ndarray]:
    """World positions of the interaction points on a novel object pair.

    Each point is the fitted reconstruction at its canonical index plus
    the canonical-frame residual recorded at extraction time, so contact
    geometry survives the model's finite point resolution.
    """
    recon_m = reconstruct(model_m, fit_m.latent)
    recon_n = reconstruct(model_n, fit_n.latent)
    pm = fit_m.pose.apply(recon_m.points[ips.pairs[:, 0]] + ips.offsets_m)
    pn = fit_n.pose.apply(recon_n.points[ips.pairs[:, 1]] + ips.offsets_n)
    return pm, pn


_Carried = tuple[np.ndarray, np.ndarray, np.ndarray]


def _carry(
    relations: Iterable[tuple[str, str]],
    models_a: Mapping[str, CanonicalPartModel],
    models_b: Mapping[str, CanonicalPartModel],
    fits_a: Mapping[str, InferenceResult],
    fits_b: Mapping[str, InferenceResult],
    interactions: Mapping[tuple[str, str], InteractionPointSet],
) -> dict[tuple[str, str], _Carried]:
    """Each relation's transferred (p_m, p_n, p_n + d), in sorted relation order."""
    carried: dict[tuple[str, str], _Carried] = {}
    for rel in sorted(relations):
        m, n = rel
        ips = interactions[rel]
        pm, pn = transfer_points(ips, models_a[m], fits_a[m], models_b[n], fits_b[n])
        carried[rel] = (pm, pn, pn + ips.displacements_n @ fits_b[n].pose.rotation.T)
    return carried


def _align(carried: Sequence[_Carried]) -> RigidTransform:
    """One kabsch of the stacked p_m onto the stacked p_n + d, each pair weighted the same."""
    return kabsch(
        np.concatenate([pm for pm, _pn, _target in carried]),
        np.concatenate([target for _pm, _pn, target in carried]),
    )


def optimize_placement(
    relations: Sequence[tuple[str, str]],
    models_a: Mapping[str, CanonicalPartModel],
    models_b: Mapping[str, CanonicalPartModel],
    fits_a: Mapping[str, InferenceResult],
    fits_b: Mapping[str, InferenceResult],
    interactions: Mapping[tuple[str, str], InteractionPointSet],
) -> TransferResult:
    """Place object a by aligning every relation's transferred contacts at once.

    Each relation's interaction points are carried onto the fits by
    transfer_points, and kabsch aligns its p_m with p_n + d on their own;
    those are the per-relation transforms. The final transform is one kabsch
    over the pairs of every relation stacked, each pair weighted the same, so
    a single relation places exactly as its own alignment. objective is the
    mean squared contact residual ||T p_m - (p_n + d)||^2 at the final
    transform, and diagnostics holds that mean over each placed part's pairs.
    """
    relations = sorted(relations)
    carried = _carry(relations, models_a, models_b, fits_a, fits_b, interactions)
    t_final = _align(list(carried.values()))
    sq_miss = {
        rel: np.sum((t_final.apply(pm) - target) ** 2, axis=1)
        for rel, (pm, _pn, target) in carried.items()
    }

    def mean_miss(rels) -> float:
        return float(np.mean(np.concatenate([sq_miss[rel] for rel in rels])))

    return TransferResult(
        t_final=t_final,
        per_relation_transforms={
            rel: kabsch(pm, target) for rel, (pm, _pn, target) in carried.items()
        },
        objective=mean_miss(relations),
        relations=tuple(relations),
        diagnostics={m: mean_miss([r for r in relations if r[0] == m]) for m, _n in relations},
        transferred={rel: (pm, pn) for rel, (pm, pn, _target) in carried.items()},
    )


def select_relevant_relations(
    demo: Demonstration,
    models_a: Mapping[str, CanonicalPartModel],
    models_b: Mapping[str, CanonicalPartModel],
    *,
    fits: tuple[Mapping[str, InferenceResult], Mapping[str, InferenceResult]],
    interactions: Mapping[tuple[str, str], InteractionPointSet],
) -> RelationSet:
    """Pick the interaction-bearing relation subset that best replays the demo.

    fits and interactions are the demo's part fits and contact sets as
    process_demonstration derives them; selection only scores. Every
    non-empty subset of the interaction-bearing part pairs is placed on the
    demonstration itself by optimize_placement's alignment, of contacts
    carried once, and scored by how far that placement misses the
    demonstrated goal transform: translation error over scene extent plus
    rotation geodesic over pi. A subset whose contacts pin the goal scores
    about 0; point or line contacts leave the rotation free and score by how
    far the smallest-rotation solution misses. Scores are compared rounded
    to 9 decimals, so subsets that all replay the goal tie, and ties prefer
    smaller, then lexicographically earlier subsets.
    """
    fits_a, fits_b = fits
    bearing = sorted(interactions)
    if not bearing:
        raise ValueError("no relation candidates")
    if len(bearing) > _MAX_RELATIONS:
        raise ValueError(
            f"{len(bearing)} interaction-bearing pairs exceeds the cap of {_MAX_RELATIONS}"
        )
    extent = scene_extent(demo)
    carried = _carry(bearing, models_a, models_b, fits_a, fits_b, interactions)

    scores: dict[tuple, float] = {}
    for size in range(1, len(bearing) + 1):
        for subset in itertools.combinations(bearing, size):
            t = _align([carried[rel] for rel in subset])
            trans_err = float(np.linalg.norm(t.translation - demo.t_ab.translation))
            scores[subset] = trans_err / extent + rotation_geodesic(t, demo.t_ab) / np.pi
    best = min(scores, key=lambda subset: (round(scores[subset], 9), len(subset), subset))
    return RelationSet(best, scores[best])


def process_demonstration(
    demo: Demonstration,
    models_a: Mapping[str, CanonicalPartModel],
    models_b: Mapping[str, CanonicalPartModel],
    cfg: PipelineConfig = PipelineConfig(),
    seed: int = 0,
) -> DemoContext:
    """Derive a demonstration's reusable context once.

    The steps run in this order: find the contact pairs of the goal
    configuration (contact_pairs, geometry only); label both objects and fit
    only the parts those contacts touch (fit_parts, as transfer_skill does on
    a novel pair); ground the contacts in the fits; select the relations.
    """
    contacts = contact_pairs(demo, cfg.delta_scale * scene_extent(demo))
    fits_a = fit_parts(demo.object_a, models_a, {m for m, _ in contacts}, cfg.inference, seed)
    fits_b = fit_parts(demo.object_b, models_b, {n for _, n in contacts}, cfg.inference, seed)
    interactions = extract_interaction_points(demo, contacts, models_a, models_b, fits_a, fits_b)
    relations = select_relevant_relations(
        demo, models_a, models_b, fits=(fits_a, fits_b), interactions=interactions
    )
    return DemoContext(demo, models_a, models_b, fits_a, fits_b, interactions, relations)


def transfer_skill(
    ctx: DemoContext,
    novel_a: PartDecomposedObject,
    novel_b: PartDecomposedObject,
    cfg: PipelineConfig = PipelineConfig(),
    seed: int = 0,
) -> TransferResult:
    """Apply a processed demonstration to a novel object pair, with its models."""
    relations = ctx.relations.relations
    fits_a = fit_parts(novel_a, ctx.models_a, {m for m, _ in relations}, cfg.inference, seed)
    fits_b = fit_parts(novel_b, ctx.models_b, {n for _, n in relations}, cfg.inference, seed)
    return optimize_placement(
        relations, ctx.models_a, ctx.models_b, fits_a, fits_b, ctx.interactions
    )


def whole_object_baseline(
    ctx: DemoContext,
    novel_a: PartDecomposedObject,
    novel_b: PartDecomposedObject,
    cfg: PipelineConfig = PipelineConfig(),
    seed: int = 0,
) -> TransferResult:
    """Run transfer_skill on the novel objects merged to one part each.

    ctx must come from process_demonstration on a demonstration whose two
    objects were merged with merge_object, with models that map the part
    name 'whole' to models trained on merged clouds.
    """
    return transfer_skill(ctx, merge_object(novel_a), merge_object(novel_b), cfg, seed)


def object_from_dict(payload: Mapping) -> PartDecomposedObject:
    return PartDecomposedObject(
        payload["category"],
        {name: cloud_from_dict(part) for name, part in payload["parts"].items()},
    )


def demo_from_dict(payload: Mapping) -> Demonstration:
    return Demonstration(
        object_from_dict(payload["object_a"]),
        object_from_dict(payload["object_b"]),
        transform_from_dict(payload["t_ab"]),
    )


def load_demo(source) -> Demonstration:
    """Demonstration from a file path, or from the bytes of a demo file already read."""
    raw = source if isinstance(source, bytes) else Path(source).read_bytes()
    return demo_from_dict(json.loads(raw))


def context_to_dict(ctx: DemoContext) -> dict:
    """Everything process_demonstration derived, without the demo or its models.

    Arrays go through tolist, so every float survives a JSON round trip
    exactly and context_from_dict rebuilds an equal context. The
    interactions, keyed by part pairs, are a list in key order.
    """
    return {
        "fits_a": to_json(ctx.fits_a),
        "fits_b": to_json(ctx.fits_b),
        "interactions": [to_json(ips) for _rel, ips in sorted(ctx.interactions.items())],
        "relations": to_json(ctx.relations),
    }


def context_from_dict(
    demo: Demonstration,
    models_a: Mapping[str, CanonicalPartModel],
    models_b: Mapping[str, CanonicalPartModel],
    payload: Mapping,
) -> DemoContext:
    """Inverse of context_to_dict for the demonstration and models it was derived from."""
    interactions = [InteractionPointSet(**entry) for entry in payload["interactions"]]
    relations = payload["relations"]
    return DemoContext(
        demo=demo,
        models_a=models_a,
        models_b=models_b,
        fits_a={name: inference_from_dict(fit) for name, fit in payload["fits_a"].items()},
        fits_b={name: inference_from_dict(fit) for name, fit in payload["fits_b"].items()},
        interactions={(ips.part_m, ips.part_n): ips for ips in interactions},
        relations=RelationSet(
            tuple(tuple(rel) for rel in relations["relations"]), float(relations["score"])
        ),
    )


def result_to_dict(result: TransferResult) -> dict:
    return {
        "t_final": to_json(result.t_final),
        "relations": to_json(result.relations),
        "per_relation_transforms": {
            f"{m}|{n}": to_json(t) for (m, n), t in sorted(result.per_relation_transforms.items())
        },
        "objective": result.objective,
        "diagnostics": to_json(result.diagnostics),
    }
