"""Command-line entry point for dataset generation, training, transfer, and
evaluation.

All commands are driven by a single JSON config file plus dotted-key
overrides (``--set pipeline.inference.yaw_init_count=12``), so a full
experiment is reproducible from its config and seed alone: rerunning any
command with the same inputs at a fixed BLAS thread count rewrites
byte-identical outputs. The thread count fixes the order of the BLAS
reductions, and so the last bits of every fit.

``train`` reads the dataset's demo, selects its relations from the demo's
contact geometry (transfer.select_demo_relations, under the config's
``pipeline`` section) and trains only the models of those relations'
parts, as ``eval`` does: the only models ``transfer`` reads. So a
``transfer`` whose demo or ``pipeline.delta_scale`` selects another
relation needs ``train`` run under the same config.

``transfer`` keeps what it derives from the demonstration in
``<demo stem>.context.json`` beside the demo file, and later transfers
with the same demo reuse it instead of processing the demo again. The file
is one record: its ``key``, the demo's two object ``categories``, and the
``interactions`` and ``relations`` of its transfer.DemoContext, the
selected relations and their contacts grounded in those relations' part
models; the models stay in their own files. The key is a sha256 over the
demo file's bytes, the names (category first) and bytes of the selected
relations' model files, the ``pipeline`` section, the seed and the
partwarp source. A reuse hashes the demo's bytes without parsing them and
runs no contact search: the file's categories and relations name the model
files the key is checked over, so editing any other model file keeps it.
When the key differs, the file is missing, unreadable or fails the checks
of transfer.DemoContext and its RelationSet (no relation, a relation
without its contacts, a pair outside its part's model), or its relations'
model files are missing or unreadable, the demo is parsed and processed
again, with one contact search and under ``eval``'s demo seed
(evaluation.demo_seed), as ``eval``'s parts method processes it, and the
file replaced. Its bytes are a function of those inputs, so the rule
above holds for it too.

``transfer`` fits the novel pair under the config's ``seed``, ``eval``
trial i under that trial's own seed, so above one inference restart the
placement of held-out pair i can differ from the one the report gives.

The config file is flat. ``dataset_dir``, ``model_dir``, ``output_dir`` and
``count`` belong to the CLI alone; ``seed`` is the experiment's
``master_seed``; every other key, the ``cpd`` and ``pipeline`` sections
included, is the ``evaluation.ExperimentConfig`` field of the same name,
which validates the whole experiment once, when the file is loaded. The
``pipeline`` section takes ``delta_scale`` and the ``inference`` section.
A key that is not a field, or a value of the wrong type, is a config error
that names its dotted key, such as ``pipeline.inference.foo``.

Every file a command writes is laid out by geom.to_json, and every record
it reads back goes through geom.from_json, which also refuses a key that
is not a field. The payloads built here keep the order they are written in.

Exit codes: 0 on success, 1 on a runtime failure, 2 on a usage or config
error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .evaluation import (
    ExperimentConfig,
    demo_seed,
    run_experiment,
    train_models_from_objects,
    training_seeds,
    training_specs,
    trial_scene,
    write_report,
)
from .geom import from_json, to_json
from .shapemodel import CanonicalPartModel, load_model, save_model
from .synth import generate, generate_demo_scene
from .transfer import (
    DemoContext,
    InteractionPointSet,
    PartDecomposedObject,
    RelationSet,
    label_parts,
    load_demo,
    object_from_dict,
    process_demonstration,
    select_demo_relations,
    transfer_skill,
)

__all__ = ["RunConfig", "config_from_dict", "load_run_config", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Where a command reads and writes, and the experiment it runs."""

    dataset_dir: str = "dataset"
    model_dir: str = "models"
    output_dir: str = "out"
    count: int = 12
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")


_RUN_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "experiment")


def config_from_dict(payload: Mapping) -> RunConfig:
    """Map the flat config file onto RunConfig: unknown keys and mistyped values are errors."""
    data = dict(payload)
    # The file spells master_seed as `seed`, and only --jobs sets jobs: the
    # worker count changes how trials are scheduled, never what they compute.
    unknown = sorted(data.keys() & {"master_seed", "jobs"})
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]}")
    run = {name: data.pop(name) for name in _RUN_KEYS if name in data}
    if "seed" in data:
        data["master_seed"] = data.pop("seed")
    # The experiment's keys sit beside the run's at the top of the file, so
    # it is read from there: an error names pipeline.delta_scale, not
    # experiment.pipeline.delta_scale.
    experiment = from_json(ExperimentConfig, data, key="config key")
    return dataclasses.replace(from_json(RunConfig, run, key="config key"), experiment=experiment)


def _apply_override(payload: dict, assignment: str) -> None:
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise ValueError(f"override must look like key=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings may be written without quotes
    node = payload
    *parents, last = key.split(".")
    for name in parents:
        node = node.setdefault(name, {})
        if not isinstance(node, dict):
            raise ValueError(f"cannot override through non-section key {name!r}")
    node[last] = value


def load_run_config(path: str | None, overrides: Sequence[str]) -> RunConfig:
    payload: dict = {}
    if path is not None:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError("config file must hold a JSON object")
    for assignment in overrides:
        _apply_override(payload, assignment)
    return config_from_dict(payload)


# What a malformed input file or a failed stage raises. A command reports it
# as "error: <stage>: <message>" and exits 1.
_INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError, RuntimeError)


def _dump(path: Path, payload: dict, indent: int | None = None) -> None:
    path.write_text(json.dumps(payload, indent=indent, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Write training instances, held-out pairs, one demo, and a manifest."""
    exp = cfg.experiment
    dataset = Path(cfg.dataset_dir)
    manifest: dict = {
        "task": exp.task,
        "seed": exp.master_seed,
        "test_family": exp.test_family,
        "train": {},
        "heldout": [],
        "demo": "demo.json",
    }
    try:
        dataset.mkdir(parents=True, exist_ok=True)
        for cat, seed in training_seeds(exp):
            names = []
            for i, spec in enumerate(training_specs(cat, seed, exp)):
                obj, _, _ = generate(spec)
                name = f"train_{cat}_{i:02d}.json"
                _dump(dataset / name, {"spec": to_json(spec), "object": to_json(obj)})
                names.append(name)
            manifest["train"][cat] = names

        for i in range(cfg.count):
            # Pair i is the scene that trial i of `eval` sees. `transfer` fits
            # it under `seed`, not under trial i's seed, so its placement need
            # not equal the one `eval` reports.
            spec_a, spec_b, pose_a, pose_b = trial_scene(exp, i)
            pair = []
            for side, spec, pose in (("a", spec_a, pose_a), ("b", spec_b, pose_b)):
                obj, _, _ = generate(spec)
                name = f"heldout_{i:02d}_{side}.json"
                _dump(dataset / name, {
                    "spec": to_json(spec),
                    "pose": to_json(pose),
                    "object": to_json(obj.transformed(pose)),
                })
                pair.append(name)
            manifest["heldout"].append(pair)

        _dump(dataset / "demo.json", to_json(generate_demo_scene(exp.task)))
        _dump(dataset / "manifest.json", manifest, indent=2)
    except OSError as exc:
        print(f"error: writing dataset: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {exp.train_instances * 2} training instances, "
          f"{cfg.count} held-out pairs, 1 demo to {dataset}")
    return 0


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Train the part models the dataset demo's selected relations read.

    The demo named by the manifest selects its relations from its contact
    geometry alone (select_demo_relations under the config's pipeline), so
    one model file is written per part those relations name, as eval
    trains them, and no other.
    """
    exp = cfg.experiment
    dataset = Path(cfg.dataset_dir)
    manifest_path = dataset / "manifest.json"
    if not manifest_path.exists():
        print(f"error: no manifest at {manifest_path}; run gen first", file=sys.stderr)
        return 1

    model_dir = Path(cfg.model_dir)
    log: dict[str, dict] = {}
    stage = f"reading dataset: {manifest_path}"
    try:
        manifest = json.loads(manifest_path.read_text())
        train = from_json(Mapping[str, tuple[str, ...]], manifest["train"], path="train")
        stage = f"reading dataset: {dataset / manifest['demo']}"
        demo = load_demo(dataset / manifest["demo"])
        stage = "selecting relations"
        relations = select_demo_relations(demo, exp.pipeline)[0]
        selected: dict[str, set[str]] = {}
        for obj, parts in zip((demo.object_a, demo.object_b), relations.parts()):
            selected.setdefault(obj.category, set()).update(parts)
        for cat, parts in sorted(selected.items()):
            stage = f"reading dataset: {manifest_path}"
            objects = []
            for name in train[cat]:
                stage = f"reading dataset: {dataset / name}"
                payload = json.loads((dataset / name).read_text())
                objects.append(label_parts(object_from_dict(payload["object"]), parts))
            stage = f"training {cat!r}"
            models = train_models_from_objects(cat, objects, exp, parts)
            stage = "writing models"
            (model_dir / cat).mkdir(parents=True, exist_ok=True)
            for part, model in sorted(models.items()):
                save_model(model_dir / cat / f"{part}.json", model)
                log[model.part_category] = {
                    "instances": len(objects),
                    "points": model.point_count,
                    "latent_dim": model.latent_dim,
                    "explained_variance": [float(v) for v in model.explained_variance],
                    "training_residual_rms": [float(v) for v in model.training_residuals],
                }
        stage = "writing models"
        model_dir.mkdir(parents=True, exist_ok=True)
        _dump(model_dir / "training_log.json", dict(sorted(log.items())), indent=2)
    except _INPUT_ERRORS as exc:
        print(f"error: {stage}: {exc}", file=sys.stderr)
        return 1
    print(f"trained {len(log)} part models into {model_dir}")
    return 0


def _load_scene_object(path: Path) -> PartDecomposedObject:
    return object_from_dict(json.loads(path.read_text())["object"])


def _load_models(
    model_dir: Path, categories: tuple[str, str], relations: RelationSet
) -> tuple[dict[str, CanonicalPartModel], dict[str, CanonicalPartModel], dict[str, bytes]]:
    """The part models relations read, for object a and object b of categories.

    Also returns each file's bytes under its name in model_dir.
    """
    files: dict[str, bytes] = {}
    loaded = []
    for category, parts in zip(categories, relations.parts()):
        models = {}
        for part in sorted(parts):
            name = f"{category}/{part}.json"
            path = model_dir / name
            if not path.exists():
                raise FileNotFoundError(f"{path}: missing model file")
            files[name] = path.read_bytes()
            try:
                models[part] = load_model(files[name])
            except _INPUT_ERRORS as exc:
                raise ValueError(f"{path}: {exc}") from exc
        loaded.append(models)
    return loaded[0], loaded[1], files


def _context_key(demo_bytes: bytes, model_files: Mapping[str, bytes], exp: ExperimentConfig) -> str:
    """sha256 over everything process_demonstration's result depends on."""
    h = hashlib.sha256()

    def add(label: str, data: bytes) -> None:
        h.update(f"{label}\0{len(data)}\0".encode())
        h.update(data)

    # The code is an input too, _ContextFile's layout included: a context
    # from an older partwarp must miss.
    for path in sorted(Path(__file__).parent.glob("*.py")):
        add(f"source {path.name}", path.read_bytes())
    add("demo", demo_bytes)
    for name in sorted(model_files):
        add(f"model {name}", model_files[name])
    add("pipeline", json.dumps(to_json(exp.pipeline)).encode())
    add("seed", str(exp.master_seed).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class _ContextFile:
    """The layout of <demo stem>.context.json, read and written by from_json and to_json.

    categories are the demo's object categories, a then b; interactions and
    relations are its DemoContext's, whose models stay in their own files.
    """

    key: str
    categories: tuple[str, str]
    interactions: Mapping[tuple[str, str], InteractionPointSet]
    relations: RelationSet


def _load_context(
    path: Path, demo_bytes: bytes, model_dir: Path, exp: ExperimentConfig
) -> DemoContext | None:
    """The context cached at path, or None if it cannot be reused.

    The file's categories and relations name the model files to load, and
    the key is checked over those files and the demo's bytes, so neither a
    contact search nor a parse of the demo runs. A missing or unreadable
    file, relations that are empty or whose model files are missing or
    unreadable, a key that differs, or a context DemoContext refuses all
    give None.
    """
    try:
        record = from_json(_ContextFile, json.loads(path.read_bytes()))
        models_a, models_b, files = _load_models(model_dir, record.categories, record.relations)
        if record.key != _context_key(demo_bytes, files, exp):
            return None
        return DemoContext(models_a, models_b, record.interactions, record.relations)
    except (*_INPUT_ERRORS, IndexError):
        return None


def _store_context(path: Path, record: _ContextFile) -> None:
    """Replace path atomically; a failure only costs the next transfer a recomputation."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        _dump(tmp, to_json(record))
        os.replace(tmp, path)
    except (OSError, ValueError) as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        print(f"note: demo context not cached: {exc}", file=sys.stderr)


def cmd_transfer(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Apply a demonstration to one novel scene and write the result."""
    exp = cfg.experiment
    demo_path = Path(args.demo)
    try:
        stage = f"loading inputs: {demo_path}"
        demo_bytes = demo_path.read_bytes()
        stage = f"loading inputs: {args.scene_a}"
        novel_a = _load_scene_object(Path(args.scene_a))
        stage = f"loading inputs: {args.scene_b}"
        novel_b = _load_scene_object(Path(args.scene_b))
        model_dir = Path(cfg.model_dir)
        cache = demo_path.with_name(f"{demo_path.stem}.context.json")
        ctx = _load_context(cache, demo_bytes, model_dir, exp)
        if ctx is None:
            stage = f"loading inputs: {demo_path}"
            demo = load_demo(demo_bytes)
            stage = "processing demonstration"
            selected = select_demo_relations(demo, exp.pipeline)
            stage = "loading models"
            categories = (demo.object_a.category, demo.object_b.category)
            models_a, models_b, files = _load_models(model_dir, categories, selected[0])
            stage = "processing demonstration"
            ctx = process_demonstration(
                demo, selected, models_a, models_b, exp.pipeline, seed=demo_seed(exp)
            )
            key = _context_key(demo_bytes, files, exp)
            _store_context(cache, _ContextFile(key, categories, ctx.interactions, ctx.relations))
        stage = "optimizing placement"
        result = transfer_skill(ctx, novel_a, novel_b, exp.pipeline, seed=exp.master_seed)
        stage = "writing result"
        out = Path(args.out) if args.out else Path(cfg.output_dir) / "transfer_result.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        _dump(out, {**to_json(result), "relation_set": to_json(ctx.relations)}, indent=2)
    except _INPUT_ERRORS as exc:
        print(f"error: {stage}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Run the paired experiment and write report, CSV, and timings."""
    stage = "writing report"
    try:
        # Made before any trial runs, so an unwritable path costs no trial.
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        stage = "running experiment"
        report = run_experiment(dataclasses.replace(cfg.experiment, jobs=args.jobs))
        stage = "writing report"
        write_report(report, cfg.output_dir)
    except OSError as exc:
        print(f"error: {stage}: {exc}", file=sys.stderr)
        return 1
    rates = ", ".join(
        f"{m}={'n/a' if r is None else f'{r:.3f}'}"
        for m, r in report.success_rates.items()
    )
    print(f"wrote report to {cfg.output_dir} ({rates})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="JSON run config; defaults apply when omitted")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config entry by dotted key, e.g. "
                          "pipeline.inference.yaw_init_count=12")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partwarp",
        description="Part-level shape-warping skill transfer on procedural scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a dataset: training objects, "
                                       "held-out pairs, and one demonstration")
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser(
        "train",
        help="train the part models the dataset demo's selected relations read",
        description="Train per-part shape models from the dataset's training objects, for "
                    "the parts of the relations the dataset's demo selects under the "
                    "config's pipeline section: the only models transfer reads.",
    )
    _add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_transfer = sub.add_parser(
        "transfer",
        help="replay a demonstration on a novel scene",
        description="Replay a demonstration on a novel scene. The demo is processed under "
                    "eval's demo seed, and <demo stem>.context.json beside the demo file "
                    "keeps a sha256 key, the demo's two object categories, its selected "
                    "relations' contacts grounded in those relations' part models, and the "
                    "relations. Later transfers reuse it, hashing the demo's bytes without "
                    "parsing them and with no contact search, while the demo, the model files "
                    "of its selected relations' parts, the pipeline section, the seed and the "
                    "partwarp source are unchanged. The novel pair is fitted under the config's "
                    "seed, not eval's per-trial seed: above one restart its placement can "
                    "differ from eval's.",
    )
    _add_common(p_transfer)
    p_transfer.add_argument("--demo", required=True, help="demonstration JSON file")
    p_transfer.add_argument("--scene-a", required=True, help="novel placed-object JSON file")
    p_transfer.add_argument("--scene-b", required=True, help="novel reference-object JSON file")
    p_transfer.add_argument("--out", help="result path (default <output_dir>/transfer_result.json)")
    p_transfer.set_defaults(func=cmd_transfer)

    p_eval = sub.add_parser("eval", help="run the paired method-comparison experiment")
    _add_common(p_eval)
    p_eval.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the trials")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        cfg = load_run_config(args.config, args.set)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2
    return args.func(cfg, args)


if __name__ == "__main__":
    sys.exit(main())
