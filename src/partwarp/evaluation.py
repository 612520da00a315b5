"""Task-success checks and the paired experiment harness.

Success of a predicted placement is judged on the synthetic world's exact
geometry: the placed object must not sink into the other object beyond a
penetration tolerance, and an analytic per-task predicate (hang, rest,
pour) must hold. Experiments run both the parts-based method and the
whole-object baseline on bit-identical trial inputs so that rate
differences are attributable to the method alone. Relations are selected
from the demonstration's contact geometry before anything is trained, and
the parts method trains only the models of the selected relations' parts,
the only ones its pipeline reads; the report is the same as with every
part's model.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from .geom import PointCloud, RigidTransform, rotation_about_axis, to_json
from .registration import CpdConfig
from .shapemodel import CanonicalPartModel, train_part_model
from .synth import (
    CATEGORY_DEFAULTS,
    PENETRATION_TOLERANCE,
    AnalyticSdf,
    ObjectFeatures,
    ParametricObjectSpec,
    generate,
    generate_demo_scene,
    penetration_depth,
    sample_spec,
    task_categories,
    task_predicate,
)
from .transfer import (
    DemoContext,
    Demonstration,
    PartDecomposedObject,
    PipelineConfig,
    label_parts,
    merge_object,
    process_demonstration,
    select_demo_relations,
    transfer_skill,
    whole_object_baseline,
)

__all__ = [
    "METHOD_PARTS",
    "METHOD_WHOLE",
    "TrialRecord",
    "ExperimentConfig",
    "ExperimentReport",
    "TEST_FAMILIES",
    "check_success",
    "training_seeds",
    "training_specs",
    "train_models_from_objects",
    "train_category_models",
    "train_whole_models",
    "draw_test_pair",
    "trial_scene",
    "demo_seed",
    "run_experiment",
    "report_to_dict",
    "report_to_csv",
    "report_timings",
    "write_report",
]

# Method identifiers used throughout reports: the parts-based shape-warping
# pipeline versus the same pipeline run on whole, undecomposed objects.
METHOD_PARTS = "PSW"
METHOD_WHOLE = "IW"

# Test families: each draws both objects from the training family and
# widens only the parameters it names, to the fractional width given.
TEST_FAMILIES: dict[str, dict[str, float]] = {
    "control": {},
    # Puts the rack's peg, hence the contact, far outside anything the
    # training family shows.
    "raised_peg": {"peg_height": 0.30},
}


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one method on one trial scene."""

    task: str
    trial: int
    method: str
    spec_a: ParametricObjectSpec
    spec_b: ParametricObjectSpec
    t_predicted: RigidTransform | None
    success: bool
    penetration_depth: float | None
    task_predicate: bool
    wall_time: float
    seed: int
    note: str = ""


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "mug_on_rack"
    n_trials: int = 50
    master_seed: int = 0
    test_family: str = "control"
    methods: tuple[str, ...] = (METHOD_PARTS, METHOD_WHOLE)
    points_per_part: int = 400
    train_points_per_part: int = 220
    train_instances: int = 5
    train_width: float = 0.10
    latent_dim: int | None = None
    cpd: CpdConfig = field(default_factory=CpdConfig)
    penetration_tolerance: float = PENETRATION_TOLERANCE
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    jobs: int = 1

    def __post_init__(self):
        task_categories(self.task)
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if self.n_trials < 0:
            raise ValueError("n_trials must be >= 0")
        if self.test_family not in TEST_FAMILIES:
            raise ValueError(f"unknown test family {self.test_family!r}")
        params = {name for cat in task_categories(self.task) for name in CATEGORY_DEFAULTS[cat]}
        stray = sorted(set(TEST_FAMILIES[self.test_family]) - params)
        if stray:
            raise ValueError(
                f"test family {self.test_family!r} widens {stray[0]!r}, "
                f"which no object of task {self.task!r} has"
            )
        bad = sorted(set(self.methods) - {METHOD_PARTS, METHOD_WHOLE})
        if bad:
            raise ValueError(f"unknown method {bad[0]!r}")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must not repeat")
        if self.train_instances < 2:
            raise ValueError("train_instances must be >= 2")
        if not 0.0 <= self.train_width < 1.0:
            raise ValueError("train_width must be in [0, 1)")
        if min(self.points_per_part, self.train_points_per_part) < 10:
            raise ValueError("points per part must be >= 10")
        if self.penetration_tolerance < 0:
            raise ValueError("penetration_tolerance must be >= 0")
        if self.latent_dim is not None and not 1 <= self.latent_dim < self.train_instances:
            raise ValueError("latent_dim must satisfy 1 <= latent_dim <= train_instances - 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass(frozen=True)
class ExperimentReport:
    config: Mapping
    trials: tuple[TrialRecord, ...]
    success_rates: Mapping[str, float | None]
    standard_errors: Mapping[str, float | None]


def check_success(
    task: str,
    placed_a: PartDecomposedObject,
    sdf_b: AnalyticSdf,
    feat_a: ObjectFeatures,
    feat_b: ObjectFeatures,
    tolerance: float = PENETRATION_TOLERANCE,
) -> tuple[bool, float, bool]:
    """Judge a placed object: returns (success, penetration, predicate).

    placed_a, feat_a must already be in the predicted goal pose; sdf_b and
    feat_b in the second object's world pose. Success needs both a
    penetration within tolerance and the task's geometric predicate.
    """
    pen = penetration_depth(placed_a.all_points(), sdf_b)
    pred = task_predicate(task, feat_a, feat_b)
    return (pen <= tolerance) and pred, pen, pred


def _centered(cloud: PointCloud) -> PointCloud:
    return PointCloud(cloud.points - cloud.points.mean(axis=0), cloud.labels)


def training_seeds(cfg: ExperimentConfig) -> tuple[tuple[str, int], tuple[str, int]]:
    """Each category of cfg's task with the seed its training set is drawn from."""
    cat_a, cat_b = task_categories(cfg.task)
    return (cat_a, cfg.master_seed + 11), (cat_b, cfg.master_seed + 12)


def training_specs(category: str, seed: int, cfg: ExperimentConfig) -> list[ParametricObjectSpec]:
    """The cfg.train_instances specs of category's training set under seed."""
    rng = np.random.default_rng([seed, 1])
    return [
        sample_spec(
            category,
            rng,
            widths=cfg.train_width,
            seed=int(rng.integers(2**31)),
            points_per_part=cfg.train_points_per_part,
        )
        for _ in range(cfg.train_instances)
    ]


def train_models_from_objects(
    category: str,
    objects: Sequence[PartDecomposedObject],
    cfg: ExperimentConfig = ExperimentConfig(),
    parts: Collection[str] | None = None,
) -> dict[str, CanonicalPartModel]:
    """Per-part models from already-labeled instances of one category.

    parts names the models to train; None trains one for every part any
    instance has. Every instance must have each of them, or a ValueError
    names the instance and the part before any model is trained.
    train_category_models passes its parts on, and cli train the parts of
    the dataset demo's selected relations.

    Every part cloud is centered at its centroid before training, standing
    in for the pose-aligned segments an upstream perception stack would
    give.
    """
    names = {name for o in objects for name in o.parts} if parts is None else set(parts)
    for i, o in enumerate(objects):
        missing = sorted(names - set(o.parts))
        if missing:
            raise ValueError(f"training instance {i} of {category!r} has no part {missing[0]!r}")
    models: dict[str, CanonicalPartModel] = {}
    for part in sorted(names):
        instances = [_centered(o.parts[part]) for o in objects]
        models[part] = train_part_model(
            instances, d=cfg.latent_dim, cpd=cfg.cpd, part_category=f"{category}/{part}"
        )
    return models


def train_category_models(
    category: str,
    seed: int,
    cfg: ExperimentConfig = ExperimentConfig(),
    parts: Collection[str] | None = None,
) -> dict[str, CanonicalPartModel]:
    """Per-part canonical models from a family of generated objects.

    parts names the models to train, None every part; run_experiment passes
    the parts of the PSW demo's selected relations. Each instance is labeled
    as a whole object first (label_parts with the same parts, which gives
    each named part the labels of a full call), so relational labels exist
    on every trained part before the parts are split apart for training.
    """
    objects = [label_parts(generate(s)[0], parts) for s in training_specs(category, seed, cfg)]
    return train_models_from_objects(category, objects, cfg, parts)


def train_whole_models(
    category: str, seed: int, cfg: ExperimentConfig = ExperimentConfig()
) -> dict[str, CanonicalPartModel]:
    """train_category_models on each instance merged to one part, 'whole'."""
    objects = [
        label_parts(merge_object(generate(s)[0])) for s in training_specs(category, seed, cfg)
    ]
    return train_models_from_objects(category, objects, cfg)


def draw_test_pair(
    cfg: ExperimentConfig, rng: np.random.Generator
) -> tuple[ParametricObjectSpec, ParametricObjectSpec]:
    """Sample the two object specs of one trial from cfg's test family.

    Both objects come from the family the models are trained on, every
    parameter within +-cfg.train_width of its default, except the
    parameters the test family widens, on whichever object has them.
    """
    wider = TEST_FAMILIES[cfg.test_family]
    return tuple(
        sample_spec(
            category,
            rng,
            widths={p: wider.get(p, cfg.train_width) for p in CATEGORY_DEFAULTS[category]},
            seed=int(rng.integers(2**31)),
            points_per_part=cfg.points_per_part,
        )
        for category in task_categories(cfg.task)
    )


def _trial_seed(master_seed: int, trial: int) -> int:
    return int(np.random.SeedSequence((master_seed, 2, trial)).generate_state(1)[0])


def demo_seed(cfg: ExperimentConfig) -> int:
    """The seed the demo is processed under, by eval and by cli transfer alike."""
    return int(np.random.SeedSequence((cfg.master_seed, 3)).generate_state(1)[0])


def _yaw_box_pose(rng: np.random.Generator) -> RigidTransform:
    # Tabletop scenes: uniform yaw, translation inside a 0.5 m box, no tilt.
    yaw = rng.uniform(0.0, 2.0 * np.pi)
    xy = rng.uniform(-0.25, 0.25, size=2)
    return RigidTransform(
        rotation_about_axis([0.0, 0.0, 1.0], yaw), np.array([xy[0], xy[1], 0.0])
    )


def trial_scene(
    cfg: ExperimentConfig, trial: int
) -> tuple[ParametricObjectSpec, ParametricObjectSpec, RigidTransform, RigidTransform]:
    """Trial i's two specs and world poses, keyed to (master_seed, i) alone."""
    rng = np.random.default_rng([cfg.master_seed, 1, trial])
    spec_a, spec_b = draw_test_pair(cfg, rng)
    return spec_a, spec_b, _yaw_box_pose(rng), _yaw_box_pose(rng)


def _run_trial(
    cfg: ExperimentConfig, trial: int, contexts: Mapping[str, DemoContext]
) -> list[TrialRecord]:
    spec_a, spec_b, init_a, pose_b = trial_scene(cfg, trial)
    obj_a, _, feat_a = generate(spec_a)
    obj_b, sdf_b, feat_b = generate(spec_b)
    novel_a = obj_a.transformed(init_a)
    novel_b = obj_b.transformed(pose_b)
    sdf_b_world = sdf_b.transformed(pose_b)
    feat_b_world = feat_b.transformed(pose_b)
    seed = _trial_seed(cfg.master_seed, trial)

    records = []
    for method in cfg.methods:
        start = time.perf_counter()
        note = ""
        t_final = None
        try:
            transfer = transfer_skill if method == METHOD_PARTS else whole_object_baseline
            t_final = transfer(contexts[method], novel_a, novel_b, cfg.pipeline, seed=seed).t_final
        except Exception as exc:  # noqa: BLE001 - trial failures must not abort the batch
            note = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start

        # (success, penetration, predicate); a transfer that raised is judged a miss.
        judged = (False, None, False)
        if t_final is not None:
            feat_a_world = feat_a.transformed(t_final.compose(init_a))
            judged = check_success(
                cfg.task, novel_a.transformed(t_final), sdf_b_world, feat_a_world,
                feat_b_world, cfg.penetration_tolerance,
            )
        records.append(TrialRecord(
            cfg.task, trial, method, spec_a, spec_b, t_final, *judged, elapsed, seed, note,
        ))
    return records


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Select the demo's relations, train, then score every method on paired trials.

    Each method's demo contacts and relation selection come first
    (select_demo_relations, geometry only), so a demo without contacts
    fails before a model is trained. PSW then trains only the models of
    the selected relations' parts, the only ones its pipeline reads, and
    the report is the same as with every part's model; IW trains its one
    'whole' model per category. process_demonstration then fits and grounds
    the selected relations alone.

    Per-trial randomness is keyed to (master_seed, trial index) so both
    methods always see bit-identical scenes and reports reproduce exactly.
    Failures inside a trial are recorded on that trial and never abort the
    batch.
    """
    # The demo depends on the task alone, so both methods share one draw.
    demo = generate_demo_scene(cfg.task)
    demos = {
        METHOD_PARTS: demo,
        METHOD_WHOLE: Demonstration(
            merge_object(demo.object_a), merge_object(demo.object_b), demo.t_ab
        ),
    }
    selected = {
        method: select_demo_relations(demos[method], cfg.pipeline) for method in cfg.methods
    }
    contexts: dict[str, DemoContext] = {}
    for method in cfg.methods:
        # Both here and in _run_trial the function is picked by name at call
        # time, not from a module-level {method: fn} table: a table would keep
        # the functions it was built with and hide the calls from tracing
        # that patches these module attributes.
        if method == METHOD_PARTS:
            models_a, models_b = (
                train_category_models(cat, seed, cfg, parts)
                for (cat, seed), parts in zip(training_seeds(cfg), selected[method][0].parts())
            )
        else:
            models_a, models_b = (
                train_whole_models(cat, seed, cfg) for cat, seed in training_seeds(cfg)
            )
        contexts[method] = process_demonstration(
            demos[method], selected[method], models_a, models_b, cfg.pipeline, seed=demo_seed(cfg)
        )

    trials: list[TrialRecord] = []
    if cfg.jobs > 1 and cfg.n_trials > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = [
                pool.submit(_run_trial, cfg, i, contexts) for i in range(cfg.n_trials)
            ]
            for fut in futures:
                trials.extend(fut.result())
    else:
        for i in range(cfg.n_trials):
            trials.extend(_run_trial(cfg, i, contexts))

    rates: dict[str, float | None] = {}
    errors: dict[str, float | None] = {}
    for method in cfg.methods:
        flags = [t.success for t in trials if t.method == method]
        if not flags:
            rates[method] = None
            errors[method] = None
            continue
        p = float(np.mean(flags))
        rates[method] = p
        errors[method] = float(np.sqrt(p * (1.0 - p) / len(flags)))

    # Worker count changes how trials are scheduled, never what they compute,
    # so it stays out of the reproducible report like wall time does.
    config = to_json(cfg)
    del config["jobs"]
    return ExperimentReport(
        config=config,
        trials=tuple(trials),
        success_rates=rates,
        standard_errors=errors,
    )


def report_to_dict(report: ExperimentReport) -> dict:
    """Deterministic report payload; every wall-clock time, a trial's too, lives elsewhere."""
    return {
        "config": report.config,
        "success_rates": dict(report.success_rates),
        "standard_errors": dict(report.standard_errors),
        "trials": [
            {k: v for k, v in to_json(t).items() if k != "wall_time"} for t in report.trials
        ],
    }


def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "task", "trial", "method", "success", "penetration_depth",
        "task_predicate", "seed", "note",
    ])
    for t in report.trials:
        writer.writerow([
            t.task, t.trial, t.method, int(t.success),
            "" if t.penetration_depth is None else f"{t.penetration_depth:.9g}",
            int(t.task_predicate), t.seed, t.note,
        ])
    return buf.getvalue()


# The thread count sets the order of BLAS reductions, and so the last bits
# of every fit: a report reproduces byte for byte only at the same setting.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def report_timings(report: ExperimentReport) -> dict:
    """Wall times and the BLAS thread variables as set (None when unset),
    split out so the main report stays byte-reproducible."""
    return {
        "trials": [
            {"trial": t.trial, "method": t.method, "wall_time": t.wall_time}
            for t in report.trials
        ],
        "total": float(sum(t.wall_time for t in report.trials)),
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARIABLES},
    }


def write_report(report: ExperimentReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(report_to_dict(report), indent=2, allow_nan=False)
    (out / "report.json").write_text(payload + "\n")
    (out / "trials.csv").write_text(report_to_csv(report))
    timing = json.dumps(report_timings(report), indent=2)
    (out / "timings.json").write_text(timing + "\n")
