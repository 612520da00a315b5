"""One-shot transfer of a demonstrated object-object arrangement.

The pipeline finds the contact point pairs of a single demonstration from
its geometry and selects the relations to replay from those contacts
alone, before any model exists: each candidate subset is scored by how
closely one alignment of its contact points replays the demonstrated goal.
That selection, select_demo_relations' (RelationSet, contacts), is the one
every later step reads: RelationSet.parts names the parts to train and fit,
and process_demonstration grounds the selected contacts in those parts'
fitted models. A transfer re-localizes them on novel objects through model
fits, and places the first object by the one rigid motion that best aligns
those points with their demonstrated offsets: one kabsch solve over every
selected relation's contacts, the alignment selection scored with.
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
    from_json,
    near_box,
    rotation_geodesic,
    sqdist_rows,
    whole_numbers,
    z_label_values,
)
from .registration import kabsch
from .shapemodel import (
    Z_KEY,
    CanonicalPartModel,
    InferenceConfig,
    InferenceResult,
    infer,
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
    "ADJACENCY_SCALE",
    "LABEL_RATIO",
    "label_parts",
    "fit_parts",
    "merge_object",
    "contact_pairs",
    "select_demo_relations",
    "extract_interaction_points",
    "transfer_points",
    "select_relevant_relations",
    "optimize_placement",
    "process_demonstration",
    "transfer_skill",
    "whole_object_baseline",
    "scene_extent",
    "object_from_dict",
    "load_demo",
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
        return PointCloud(self.all_points()).extent()

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


# contact_pairs' result: per (part of a, part of b), the index arrays of its
# contact points into the two parts.
_Contacts = dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class InteractionPointSet:
    """Contact pairs for one part pair, grounded in canonical indices.

    displacements_n holds, per pair, the offset from the second object's
    point to the first object's point in the demonstrated goal
    configuration, expressed in part n's canonical frame; a novel fit of
    part n re-expresses it in its own scene, which keeps the replayed
    contact geometry attached to the reference part rather than to the
    demo's world axes. offsets_m and offsets_n keep each demo point's
    residual from its grounding point, expressed in the canonical frame, so
    re-localization is not quantized to the model's discrete points.
    pairs holds each pair's (index into part m's model, index into part n's)
    as whole numbers; DemoContext checks they index points of those models.
    """

    part_m: str
    part_n: str
    pairs: np.ndarray
    displacements_n: np.ndarray
    offsets_m: np.ndarray
    offsets_n: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.pairs)
        k = raw.shape[0] if raw.ndim == 2 else 0
        if raw.ndim != 2 or raw.shape[1] != 2 or k < 3:
            raise ValueError("need at least three interaction pairs")
        arrays = {"pairs": whole_numbers(raw, "interaction pairs")}
        for name in ("displacements_n", "offsets_m", "offsets_n"):
            arrays[name] = np.asarray(getattr(self, name), dtype=np.float64)
            if arrays[name].shape != (k, 3):
                raise ValueError("inconsistent interaction point arrays")
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class RelationSet:
    """The selected (part of a, part of b) relations and their selection score."""

    relations: tuple[tuple[str, str], ...]
    score: float

    def __post_init__(self):
        if not self.relations:
            raise ValueError("a relation set needs at least one relation")

    def parts(self) -> tuple[set[str], set[str]]:
        """The parts the relations name on object a (each m) and on object b (each n)."""
        return {m for m, _ in self.relations}, {n for _, n in self.relations}


@dataclass(frozen=True)
class TransferResult:
    """A placement; the CLI's result file is its to_json, then the relation set."""

    t_final: RigidTransform
    relations: tuple[tuple[str, str], ...]
    per_relation_transforms: Mapping[tuple[str, str], RigidTransform]
    objective: float
    diagnostics: Mapping[str, float]


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
    """What a transfer reads of one processed demonstration, reusable across scenes.

    relations is the selected relation set, and interactions holds those
    relations' grounded contacts alone. models_a and models_b are the part
    models the demo was processed with, and every transfer of the context
    fits the novel objects with them; they may cover only the selected
    relations' parts, as run_experiment trains them. The demo and its fits
    stay out: a transfer reads neither.

    Built or read, the record checks itself: each interaction sits under its
    own key and indexes its parts' model points, and each relation has one.
    """

    models_a: Mapping[str, CanonicalPartModel]
    models_b: Mapping[str, CanonicalPartModel]
    interactions: Mapping[tuple[str, str], InteractionPointSet]
    relations: RelationSet

    def __post_init__(self):
        for (m, n), ips in self.interactions.items():
            if (m, n) != (ips.part_m, ips.part_n):
                raise ValueError(f"interactions.{m}|{n} holds the pair {ips.part_m}|{ips.part_n}")
            for part, models, index in zip((m, n), (self.models_a, self.models_b), ips.pairs.T):
                count = models[part].point_count if part in models else 0
                if index.min() < 0 or index.max() >= count:
                    raise ValueError(f"interactions.{m}|{n} indexes part {part!r} "
                                     f"outside its model's {count} points")
        for m, n in self.relations.relations:
            if (m, n) not in self.interactions:
                raise ValueError(f"relations name {m}|{n}, which interactions lack")


def scene_extent(demo: Demonstration) -> float:
    """Bounding-box diagonal of the demo scene in its goal configuration."""
    goal_a = demo.object_a.transformed(demo.t_ab)
    return PointCloud(np.concatenate([goal_a.all_points(), demo.object_b.all_points()])).extent()


# label_parts' two settings. Training and transfer both label with them, so
# a model's label keys always match the keys of the clouds it is fitted to.
ADJACENCY_SCALE = 0.02
LABEL_RATIO = 0.4


def label_parts(
    obj: PartDecomposedObject, parts: Collection[str] | None = None
) -> PartDecomposedObject:
    """Attach height labels and relational labels between adjacent parts.

    Two parts are adjacent when their closest points come within
    ADJACENCY_SCALE times the object extent. Every part receives the
    height key; each adjacent pair receives mutual adj:<other> keys, whose
    points are 1 within LABEL_RATIO times the median nearest distance
    (geom.adjacency_label_values).

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
    threshold = ADJACENCY_SCALE * obj.extent()
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
                labeled[a][f"adj:{b}"] = adjacency_label_values(near_a, LABEL_RATIO)
            if want_b:
                labeled[b][f"adj:{a}"] = adjacency_label_values(near_b, LABEL_RATIO)
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


def contact_pairs(demo: Demonstration, delta: float, k_max: int = 32) -> _Contacts:
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
    out: _Contacts = {}
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
    contacts: _Contacts,
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


_Carried = tuple[np.ndarray, np.ndarray]


def _carry(
    relations: Iterable[tuple[str, str]],
    models_a: Mapping[str, CanonicalPartModel],
    models_b: Mapping[str, CanonicalPartModel],
    fits_a: Mapping[str, InferenceResult],
    fits_b: Mapping[str, InferenceResult],
    interactions: Mapping[tuple[str, str], InteractionPointSet],
) -> dict[tuple[str, str], _Carried]:
    """Each relation's transferred (p_m, p_n + d), in sorted relation order."""
    carried: dict[tuple[str, str], _Carried] = {}
    for rel in sorted(relations):
        m, n = rel
        ips = interactions[rel]
        pm, pn = transfer_points(ips, models_a[m], fits_a[m], models_b[n], fits_b[n])
        carried[rel] = (pm, pn + ips.displacements_n @ fits_b[n].pose.rotation.T)
    return carried


def _align(carried: Sequence[_Carried]) -> RigidTransform:
    """One kabsch of the stacked sources onto the stacked targets, each pair weighted the same.

    Each entry holds a relation's (sources, targets): a carried
    (p_m, p_n + d), or a demo's (x, t_ab(x)).
    """
    return kabsch(
        np.concatenate([sources for sources, _ in carried]),
        np.concatenate([targets for _, targets in carried]),
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
        for rel, (pm, target) in carried.items()
    }

    def mean_miss(rels) -> float:
        return float(np.mean(np.concatenate([sq_miss[rel] for rel in rels])))

    return TransferResult(
        t_final=t_final,
        per_relation_transforms={
            rel: kabsch(pm, target) for rel, (pm, target) in carried.items()
        },
        objective=mean_miss(relations),
        relations=tuple(relations),
        diagnostics={m: mean_miss([r for r in relations if r[0] == m]) for m, _n in relations},
    )


def select_relevant_relations(demo: Demonstration, contacts: _Contacts) -> RelationSet:
    """Pick the subset of the demo's contact relations that best replays the demo.

    contacts are contact_pairs' index arrays per part pair; selection needs
    no model or fit. Every non-empty subset of the contact-bearing part
    pairs is placed by optimize_placement's alignment (_align) of its
    contact points on object a, x, onto their goal positions t_ab(x), and
    scored by how far that placement misses the demonstrated goal
    transform: translation error over scene extent plus rotation geodesic
    over pi. On the demo these are exactly the points placement would
    align: carried through the demo's own fits, a contact point comes back
    as x and its p_n + d as t_ab(x), up to rounding. So a subset whose
    contact points on object a span a plane scores about 0, whatever it
    touches; points on one line or a single point leave the rotation free
    and score by how far the smallest-rotation solution misses. Scores are
    compared rounded to 9 decimals, so subsets that all replay the goal
    tie, and ties prefer smaller, then lexicographically earlier subsets.
    """
    bearing = sorted(contacts)
    if not bearing:
        raise ValueError("no relation candidates")
    if len(bearing) > _MAX_RELATIONS:
        raise ValueError(
            f"{len(bearing)} contact-bearing pairs exceeds the cap of {_MAX_RELATIONS}"
        )
    extent = scene_extent(demo)
    if extent == 0.0:
        raise ValueError("demo scene has zero extent: every point coincides")
    goal = {}
    for m, n in bearing:
        x = demo.object_a.parts[m].points[contacts[(m, n)][0]]
        goal[(m, n)] = (x, demo.t_ab.apply(x))

    scores: dict[tuple, float] = {}
    for size in range(1, len(bearing) + 1):
        for subset in itertools.combinations(bearing, size):
            t = _align([goal[rel] for rel in subset])
            trans_err = float(np.linalg.norm(t.translation - demo.t_ab.translation))
            scores[subset] = trans_err / extent + rotation_geodesic(t, demo.t_ab) / np.pi
    best = min(scores, key=lambda subset: (round(scores[subset], 9), len(subset), subset))
    return RelationSet(best, scores[best])


def select_demo_relations(
    demo: Demonstration, cfg: PipelineConfig = PipelineConfig()
) -> tuple[RelationSet, _Contacts]:
    """A demo's one contact search and one selection, before any model exists.

    Returns the selected RelationSet and the selected relations' contact
    pairs: contact_pairs at the pipeline's radius, cfg.delta_scale times
    scene_extent(demo), scored by select_relevant_relations.
    """
    contacts = contact_pairs(demo, cfg.delta_scale * scene_extent(demo))
    relations = select_relevant_relations(demo, contacts)
    return relations, {rel: contacts[rel] for rel in relations.relations}


def process_demonstration(
    demo: Demonstration,
    selected: tuple[RelationSet, _Contacts],
    models_a: Mapping[str, CanonicalPartModel],
    models_b: Mapping[str, CanonicalPartModel],
    cfg: PipelineConfig = PipelineConfig(),
    seed: int = 0,
) -> DemoContext:
    """Derive a demonstration's reusable context once, from its selection.

    selected is select_demo_relations(demo, cfg), the one contact search
    and selection, which callers run before they have models so as to know
    which to train. This labels both objects and fits only the selected
    relations' parts (fit_parts, as transfer_skill does on a novel pair),
    then grounds the selected contacts in those fits; the context keeps the
    grounded contacts, not the fits. Only those parts' models are read, so
    models_a and models_b may hold those parts alone.
    """
    relations, contacts = selected
    parts_a, parts_b = relations.parts()
    fits_a = fit_parts(demo.object_a, models_a, parts_a, cfg.inference, seed)
    fits_b = fit_parts(demo.object_b, models_b, parts_b, cfg.inference, seed)
    interactions = extract_interaction_points(demo, contacts, models_a, models_b, fits_a, fits_b)
    return DemoContext(models_a, models_b, interactions, relations)


def transfer_skill(
    ctx: DemoContext,
    novel_a: PartDecomposedObject,
    novel_b: PartDecomposedObject,
    cfg: PipelineConfig = PipelineConfig(),
    seed: int = 0,
) -> TransferResult:
    """Apply a processed demonstration to a novel object pair, with its models."""
    parts_a, parts_b = ctx.relations.parts()
    fits_a = fit_parts(novel_a, ctx.models_a, parts_a, cfg.inference, seed)
    fits_b = fit_parts(novel_b, ctx.models_b, parts_b, cfg.inference, seed)
    return optimize_placement(
        ctx.relations.relations, ctx.models_a, ctx.models_b, fits_a, fits_b, ctx.interactions
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
    return from_json(PartDecomposedObject, payload)


def load_demo(source) -> Demonstration:
    """Demonstration from a file path, or from the bytes of a demo file already read."""
    raw = source if isinstance(source, bytes) else Path(source).read_bytes()
    return from_json(Demonstration, json.loads(raw))
