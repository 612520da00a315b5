"""Parts-based shape warping for one-shot placement transfer."""

from .geom import (
    PointCloud,
    RigidTransform,
    adjacency_label_values,
    chamfer,
    labeled_chamfer,
    rotation_about_axis,
    rotation_geodesic,
    symmetric_chamfer,
    z_label_values,
)
from .registration import (
    CpdConfig,
    DisplacementField,
    cpd_nonrigid,
    kabsch,
)
from .shapemodel import (
    CanonicalPartModel,
    InferenceConfig,
    InferenceError,
    InferenceResult,
    infer,
    load_model,
    reconstruct,
    save_model,
    select_canonical,
    train_part_model,
    warp_point_indices,
)
from .transfer import (
    Demonstration,
    DemoContext,
    InteractionPointSet,
    PartDecomposedObject,
    PipelineConfig,
    RelationSet,
    TransferResult,
    contact_pairs,
    extract_interaction_points,
    fit_parts,
    label_parts,
    load_demo,
    merge_object,
    optimize_placement,
    process_demonstration,
    select_relevant_relations,
    transfer_points,
    transfer_skill,
    whole_object_baseline,
)
from .synth import (
    AnalyticSdf,
    CameraView,
    CorrespondenceMap,
    ObjectFeatures,
    ParametricObjectSpec,
    default_spec,
    features,
    generate,
    generate_demo_scene,
    goal_transform,
    partial_view,
    penetration_depth,
    sample_spec,
    task_predicate,
)
from .evaluation import (
    METHOD_PARTS,
    METHOD_WHOLE,
    ExperimentConfig,
    ExperimentReport,
    TrialRecord,
    check_success,
    draw_test_pair,
    run_experiment,
    train_category_models,
    train_models_from_objects,
    train_whole_models,
    write_report,
)

__version__ = "0.1.0"

_CLI_NAMES = ("RunConfig", "config_from_dict", "load_run_config", "main")


def __getattr__(name: str):
    # cli loads on first use: imported eagerly here, it would already be in
    # sys.modules when `python -m partwarp.cli` runs it again as __main__.
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
