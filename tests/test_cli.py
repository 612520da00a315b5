"""The command-line front end: a tiny gen/train/transfer/eval round trip on
every task, the demo context `transfer` caches, what it holds, when it is
recomputed, that reusing it runs no contact search and parses no demo, and
that it equals `eval`'s, an unwritable output path reported in one line,
config and flag validation, the scenes `gen` draws, model files `transfer`
refuses or lacks, the top-level key order of every file the CLI writes,
malformed input files `train` and `transfer` report by path and without a
traceback, the settings `eval` passes on to training, `train` writing
exactly the models `eval` trains and naming a part a training object
lacks, `eval` training only the part models its demo's selected relations
read and failing before training on a demo without contacts, `eval`'s
worker pool reproducing the one-process report, and the BLAS thread
variables recorded beside it."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import partwarp
from partwarp import cli, evaluation, transfer as transfer_module
from partwarp.evaluation import (
    METHOD_PARTS,
    METHOD_WHOLE,
    ExperimentConfig,
    ExperimentReport,
    TrialRecord,
    report_to_dict,
    write_report,
)
from partwarp.geom import PointCloud, RigidTransform, to_json
from partwarp.registration import CpdConfig
from partwarp.shapemodel import CanonicalPartModel, InferenceConfig, load_model, save_model
from partwarp.synth import (
    CATEGORY_DEFAULTS,
    default_spec,
    generate,
    generate_demo_scene,
    task_categories,
)
from partwarp.transfer import (
    Demonstration,
    PartDecomposedObject,
    PipelineConfig,
    select_demo_relations,
)

TINY = {
    "seed": 0,
    "task": "mug_on_rack",
    "count": 1,
    "n_trials": 1,
    "points_per_part": 80,
    "train_points_per_part": 80,
    "train_instances": 3,
    "pipeline": {"inference": {"restarts": 1, "yaw_init_count": 4, "max_evals": 60}},
}


# TINY as run_experiment takes it.
TINY_EXPERIMENT = ExperimentConfig(
    n_trials=3,
    points_per_part=80,
    train_points_per_part=80,
    train_instances=3,
    pipeline=PipelineConfig(
        inference=InferenceConfig(restarts=1, yaw_init_count=4, max_evals=60)),
)


# The part models of each task's selected demo relations: all that PSW reads
# and all that `train` writes. The mug's cup also touches the peg, but the
# handle-peg relation is selected.
SELECTED_PARTS = {
    "mug_on_rack": {"mug/handle", "rack/peg"},
    "bowl_on_mug": {"bowl/bowl", "mug/cup"},
    "teapot_pour_align": {"teapot/spout", "mug/cup"},
}


@pytest.mark.parametrize("task", list(SELECTED_PARTS))
def test_selected_parts_are_the_demo_selections_parts(task):
    demo = generate_demo_scene(task)
    for obj, parts in zip((demo.object_a, demo.object_b), select_demo_relations(demo)[0].parts()):
        prefix = f"{obj.category}/"
        assert {prefix + part for part in parts} == {
            name for name in SELECTED_PARTS[task] if name.startswith(prefix)}


def run(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        # Three training instances trip the "outside 5..10" advisory.
        warnings.simplefilter("ignore", UserWarning)
        return cli.main(list(argv))


def run_script(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a separate process, so that an uncaught exception shows as a traceback."""
    src = str(Path(partwarp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "partwarp.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def write_config(tmp_path, **extra) -> str:
    config = {
        **TINY,
        "dataset_dir": str(tmp_path / "dataset"),
        "model_dir": str(tmp_path / "models"),
        "output_dir": str(tmp_path / "out"),
        **extra,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("task", ["mug_on_rack", "bowl_on_mug", "teapot_pour_align"])
def test_round_trip_exits_zero_and_transfer_is_reproducible(tmp_path, task):
    common = ["--config", write_config(tmp_path, task=task)]
    assert run("gen", *common) == 0
    assert run("train", *common) == 0

    dataset = tmp_path / "dataset"
    manifest = json.loads((dataset / "manifest.json").read_text())
    demo = json.loads((dataset / manifest["demo"]).read_text())
    assert demo == json.loads(json.dumps(to_json(generate_demo_scene(task))))
    name_a, name_b = manifest["heldout"][0]
    transfer = [
        "transfer", *common,
        "--demo", str(dataset / manifest["demo"]),
        "--scene-a", str(dataset / name_a),
        "--scene-b", str(dataset / name_b),
    ]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(*transfer, "--out", str(first)) == 0
    assert run(*transfer, "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()

    assert run("eval", *common) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {t["method"] for t in report["trials"]} == {METHOD_PARTS, METHOD_WHOLE}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A generated mug_on_rack dataset and its trained models."""
    root = tmp_path_factory.mktemp("trained")
    common = ["--config", write_config(root)]
    assert run("gen", *common) == 0
    assert run("train", *common) == 0
    return root


@pytest.fixture()
def workspace(tmp_path, trained):
    for name in ("dataset", "models"):
        shutil.copytree(trained / name, tmp_path / name)
    return tmp_path


@pytest.fixture()
def processed(monkeypatch):
    """Counts the transfer command's calls of process_demonstration."""
    calls = []
    original = cli.process_demonstration

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "process_demonstration", counting)
    return calls


@pytest.fixture()
def searched(monkeypatch):
    """Counts the calls of transfer.contact_pairs, the demo's contact search."""
    calls = []
    original = transfer_module.contact_pairs

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(transfer_module, "contact_pairs", counting)
    return calls


def run_transfer(workspace, out: str, *overrides: str) -> int:
    """Run `transfer` on the first held-out pair; returns its exit code."""
    dataset = workspace / "dataset"
    manifest = json.loads((dataset / "manifest.json").read_text())
    name_a, name_b = manifest["heldout"][0]
    sets = [arg for o in overrides for arg in ("--set", o)]
    return run(
        "transfer", "--config", write_config(workspace), *sets,
        "--demo", str(dataset / manifest["demo"]),
        "--scene-a", str(dataset / name_a),
        "--scene-b", str(dataset / name_b),
        "--out", str(workspace / out),
    )


def transfer(workspace, out: str, *overrides: str) -> bytes:
    """Run `transfer` on the first held-out pair; returns the result's bytes."""
    assert run_transfer(workspace, out, *overrides) == 0
    return (workspace / out).read_bytes()


def test_second_transfer_reuses_the_processed_demo(workspace, processed, searched):
    first = transfer(workspace, "first.json")
    assert (len(processed), len(searched)) == (1, 1)
    assert (workspace / "dataset" / "demo.context.json").exists()
    assert transfer(workspace, "second.json") == first
    assert (len(processed), len(searched)) == (1, 1)


def test_editing_a_model_file_no_relation_reads_keeps_the_context(
        workspace, processed, searched):
    first = transfer(workspace, "first.json")
    (workspace / "models" / "mug" / "cup.json").write_text("junk")
    assert transfer(workspace, "second.json") == first
    assert (len(processed), len(searched)) == (1, 1)


def test_resaving_a_read_model_file_with_another_model_reprocesses_the_demo(
        workspace, processed, searched):
    transfer(workspace, "first.json")
    path = workspace / "models" / "mug" / "handle.json"
    model = load_model(path)
    save_model(path, dataclasses.replace(model, latent_scales=2.0 * model.latent_scales))
    second = transfer(workspace, "second.json")
    assert (len(processed), len(searched)) == (2, 2)
    assert transfer(workspace, "third.json") == second
    assert (len(processed), len(searched)) == (2, 2)


def test_context_with_relabelled_relations_is_recomputed(workspace, processed):
    # The relabelled relation's mug/cup.json was never trained: a miss, not an error.
    first = transfer(workspace, "first.json")
    cache = workspace / "dataset" / "demo.context.json"
    stored = cache.read_bytes()
    payload = json.loads(stored)
    payload["relations"]["relations"] = [["cup", "peg"]]
    cache.write_text(json.dumps(payload))
    assert transfer(workspace, "second.json") == first
    assert len(processed) == 2
    assert cache.read_bytes() == stored


def test_transfer_needing_a_model_train_did_not_write_names_it(workspace, capsys):
    # pipeline.delta_scale=1 selects the cup-base relation; train wrote the
    # handle and peg models that the default radius selects.
    assert run_transfer(workspace, "result.json", "pipeline.delta_scale=1") == 1
    path = workspace / "models" / "mug" / "cup.json"
    assert f"error: loading models: {path}: missing model file" in capsys.readouterr().err


def _edit_model_file(workspace) -> tuple[str, ...]:
    # Trailing whitespace changes the file's bytes, not the model.
    path = sorted((workspace / "models" / "mug").glob("*.json"))[0]
    path.write_bytes(path.read_bytes() + b" ")
    return ()


CHANGED_INPUTS = {
    "model file": _edit_model_file,
    "pipeline": lambda workspace: ("pipeline.delta_scale=0.021",),
    "seed": lambda workspace: ("seed=1",),
}


@pytest.mark.parametrize("change", list(CHANGED_INPUTS))
def test_changed_input_reprocesses_the_demo(workspace, processed, change):
    first = transfer(workspace, "first.json")
    overrides = CHANGED_INPUTS[change](workspace)
    second = transfer(workspace, "second.json", *overrides)
    assert len(processed) == 2
    if not overrides:
        assert second == first
    assert transfer(workspace, "third.json", *overrides) == second
    assert len(processed) == 2


def test_integer_spelling_of_a_float_setting_is_the_same_config(workspace, processed):
    # delta_scale=1 reads as 1.0: one context key, so the demo is processed
    # once, and one report. It selects another relation than the default
    # radius, so its models are trained first.
    assert run("train", "--config", write_config(workspace),
               "--set", "pipeline.delta_scale=1") == 0
    first = transfer(workspace, "first.json", "pipeline.delta_scale=1")
    assert transfer(workspace, "second.json", "pipeline.delta_scale=1.0") == first
    assert len(processed) == 1
    reports = []
    for value in ("1", "1.0"):
        out = workspace / f"out_{value}"
        assert run(
            "eval", "--config", write_config(workspace),
            "--set", f"pipeline.delta_scale={value}", "--set", f"output_dir={out}",
        ) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert b'"delta_scale": 1.0,' in reports[0]


def test_truncated_context_file_is_recomputed(workspace, processed):
    first = transfer(workspace, "first.json")
    cache = workspace / "dataset" / "demo.context.json"
    stored = cache.read_bytes()
    cache.write_bytes(stored[: len(stored) // 2])
    assert transfer(workspace, "second.json") == first
    assert len(processed) == 2
    assert cache.read_bytes() == stored


def test_context_whose_relation_lacks_its_interaction_is_recomputed(workspace, processed):
    first = transfer(workspace, "first.json")
    cache = workspace / "dataset" / "demo.context.json"
    stored = cache.read_bytes()
    payload = json.loads(stored)
    del payload["interactions"]["handle|peg"]
    cache.write_text(json.dumps(payload))
    assert transfer(workspace, "second.json") == first
    assert len(processed) == 2
    assert cache.read_bytes() == stored


# Each case: how one pair entry of the cached handle|peg contacts is corrupted.
# -1 would index the model's last point, 1000000 no point, and 1.5 would be
# cut to 1.
CORRUPT_PAIRS = {
    "negative": lambda index: -1,
    "past_the_model": lambda index: 1000000,
    "fractional": lambda index: index + 0.5,
}


@pytest.mark.parametrize("corruption", list(CORRUPT_PAIRS))
def test_context_with_a_pair_outside_its_model_is_recomputed(workspace, processed, corruption):
    first = transfer(workspace, "first.json")
    cache = workspace / "dataset" / "demo.context.json"
    stored = cache.read_bytes()
    payload = json.loads(stored)
    pairs = payload["interactions"]["handle|peg"]["pairs"]
    pairs[0][1] = CORRUPT_PAIRS[corruption](pairs[0][1])
    cache.write_text(json.dumps(payload))
    assert transfer(workspace, "second.json") == first
    assert len(processed) == 2
    assert cache.read_bytes() == stored


def test_context_with_no_relations_is_recomputed(workspace, processed):
    # No relation names a model file, so the key, taken over none, matches,
    # and no interaction is left to check; a placement of no relation would
    # fail, so the empty set is refused.
    first = transfer(workspace, "first.json")
    dataset = workspace / "dataset"
    cache = dataset / "demo.context.json"
    stored = cache.read_bytes()
    payload = json.loads(stored)
    payload["relations"]["relations"] = []
    payload["interactions"] = {}
    exp = cli.load_run_config(write_config(workspace), []).experiment
    payload["key"] = cli._context_key((dataset / "demo.json").read_bytes(), {}, exp)
    cache.write_text(json.dumps(payload))
    assert transfer(workspace, "second.json") == first
    assert len(processed) == 2
    assert cache.read_bytes() == stored


def test_context_file_holds_only_the_relations_and_their_contacts(workspace):
    # The demo, its fits and the models are inputs or local steps of
    # processing, and no transfer reads them from the file; the demo's
    # categories name the model files a reuse loads.
    transfer(workspace, "result.json")
    payload = json.loads((workspace / "dataset" / "demo.context.json").read_text())
    assert list(payload) == ["key", "categories", "interactions", "relations"]
    assert payload["categories"] == ["mug", "rack"]


def test_reusing_the_context_does_not_parse_the_demo(workspace, monkeypatch):
    parsed = []
    load_demo = cli.load_demo

    def counting(source):
        parsed.append(1)
        return load_demo(source)

    monkeypatch.setattr(cli, "load_demo", counting)
    first = transfer(workspace, "first.json")
    assert len(parsed) == 1

    def refuse(source):
        raise AssertionError("the demo was parsed")

    monkeypatch.setattr(cli, "load_demo", refuse)
    assert transfer(workspace, "second.json") == first


def test_context_with_another_demos_categories_is_recomputed(workspace, processed):
    # Categories name the model files the key is checked over; other ones
    # name files the key was not taken over, here files that do not exist.
    first = transfer(workspace, "first.json")
    cache = workspace / "dataset" / "demo.context.json"
    stored = cache.read_bytes()
    payload = json.loads(stored)
    payload["categories"] = ["rack", "mug"]
    cache.write_text(json.dumps(payload))
    assert transfer(workspace, "second.json") == first
    assert len(processed) == 2
    assert cache.read_bytes() == stored


def test_transfer_processes_the_demo_as_eval_does(tmp_path, monkeypatch):
    # Above one restart a fit draws random starts, so the demo context
    # depends on its seed: the CLI's must be the one eval's PSW transfers with.
    restarts = "pipeline.inference.restarts=3"
    common = ["--config", write_config(tmp_path), "--set", restarts]
    assert run("gen", *common) == 0
    assert run("train", *common) == 0
    dataset = tmp_path / "dataset"
    manifest = json.loads((dataset / "manifest.json").read_text())
    name_a, name_b = manifest["heldout"][0]
    assert run("transfer", *common, "--demo", str(dataset / manifest["demo"]),
               "--scene-a", str(dataset / name_a), "--scene-b", str(dataset / name_b)) == 0
    stored = json.loads((dataset / "demo.context.json").read_text())

    contexts = []
    process_demonstration = evaluation.process_demonstration

    def record(*args, **kwargs):
        contexts.append(process_demonstration(*args, **kwargs))
        return contexts[-1]

    monkeypatch.setattr(evaluation, "process_demonstration", record)
    exp = cli.load_run_config(common[1], [restarts]).experiment
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        evaluation.run_experiment(dataclasses.replace(exp, methods=(METHOD_PARTS,), n_trials=0))
    (ctx,) = contexts
    assert stored["interactions"] == json.loads(json.dumps(to_json(ctx.interactions)))
    assert stored["relations"] == json.loads(json.dumps(to_json(ctx.relations)))


# Each case: the config key of the command's output path (transfer's is
# --out), and the output its error names.
UNWRITABLE = {
    "gen": ("dataset_dir", "dataset"),
    "transfer": (None, "result"),
    "eval": ("output_dir", "report"),
}


@pytest.mark.parametrize("command", list(UNWRITABLE))
def test_unwritable_output_path_exits_1_with_one_line(workspace, monkeypatch, command):
    key, output = UNWRITABLE[command]
    (workspace / "blocker").write_text("a regular file")

    def refuse(cfg):
        raise AssertionError("trials ran before the output dir was made")

    # eval must find its output dir unwritable before it runs any trial.
    monkeypatch.setattr(cli, "run_experiment", refuse)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        if key is None:
            assert run_transfer(workspace, "blocker/out") == 1
        else:
            assert run(command, "--config", write_config(workspace),
                       "--set", f"{key}={workspace / 'blocker' / 'out'}") == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: writing {output}: "), lines


def test_train_on_a_zero_extent_demo_names_the_stage(tmp_path, capsys):
    # Every demo point coincides, so selection has no scene extent to scale by.
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    point = PointCloud([[0.1, 0.2, 0.3]] * 4)
    demo = Demonstration(PartDecomposedObject("mug", {"handle": point}),
                         PartDecomposedObject("rack", {"peg": point}), RigidTransform.identity())
    (dataset / "demo.json").write_text(json.dumps(to_json(demo)))
    (dataset / "manifest.json").write_text(
        json.dumps({"train": {"mug": [], "rack": []}, "demo": "demo.json"}))
    assert run("train", "--config", write_config(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "error: selecting relations: demo scene has zero extent" in err, err
    assert not (tmp_path / "models").exists()


def refused_model_file(workspace, edit) -> tuple[Path, str]:
    """Edit the payload of a model file `transfer` reads; (its path, transfer's stderr)."""
    path = sorted((workspace / "models" / "mug").glob("*.json"))[0]
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    dataset = workspace / "dataset"
    manifest = json.loads((dataset / "manifest.json").read_text())
    name_a, name_b = manifest["heldout"][0]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run(
            "transfer", "--config", write_config(workspace),
            "--demo", str(dataset / manifest["demo"]),
            "--scene-a", str(dataset / name_a),
            "--scene-b", str(dataset / name_b),
        ) == 1
    return path, err.getvalue()


def test_model_file_with_nan_is_refused(workspace):
    def edit(payload):
        payload["latent_scales"][0] = float("nan")

    path, err = refused_model_file(workspace, edit)
    assert f"error: loading models: {path}: latent_scales must be finite" in err


def test_model_file_with_an_unknown_key_is_refused(workspace):
    # Every file partwarp reads is refused for a key its record does not have.
    path, err = refused_model_file(workspace, lambda payload: payload.update(dropped_parts=[]))
    assert f"error: loading models: {path}: unknown key dropped_parts" in err


def test_model_file_with_a_fractional_label_is_refused(workspace):
    # A label value that is not 0 or 1 is refused, not cut to a whole number.
    def edit(payload):
        payload["canonical"]["labels"]["z"][0] = 0.5

    path, err = refused_model_file(workspace, edit)
    assert f"error: loading models: {path}: label 'z' values must be whole numbers" in err


def test_scene_file_with_a_fractional_label_is_refused(workspace, capsys):
    dataset = workspace / "dataset"
    manifest = json.loads((dataset / "manifest.json").read_text())
    path = dataset / manifest["heldout"][0][0]
    payload = json.loads(path.read_text())
    handle = payload["object"]["parts"]["handle"]
    handle["labels"] = {"adj:cup": [1.9] * len(handle["points"])}
    path.write_text(json.dumps(payload))
    assert run_transfer(workspace, "result.json") == 1
    message = f"error: loading inputs: {path}: label 'adj:cup' values must be whole numbers"
    assert message in capsys.readouterr().err


def test_failed_context_write_still_transfers(workspace, monkeypatch):
    def refuse(src, dst):
        raise OSError("no space left on device")

    dataset = workspace / "dataset"
    before = sorted(p.name for p in dataset.iterdir())
    with monkeypatch.context() as patch, contextlib.redirect_stderr(io.StringIO()) as err:
        patch.setattr(os, "replace", refuse)
        first = transfer(workspace, "first.json")
    assert "not cached: no space left on device" in err.getvalue()
    assert sorted(p.name for p in dataset.iterdir()) == before
    assert transfer(workspace, "second.json") == first


def test_every_written_file_keeps_its_top_level_key_order(workspace):
    # Records are laid out by to_json (fields in declaration order); the
    # wrappers around them keep the order the CLI writes them in.
    dataset = workspace / "dataset"
    manifest = json.loads((dataset / "manifest.json").read_text())

    def keys(path) -> list[str]:
        return list(json.loads(Path(path).read_text()))

    assert keys(dataset / manifest["train"]["mug"][0]) == ["spec", "object"]
    for name in manifest["heldout"][0]:
        assert keys(dataset / name) == ["spec", "pose", "object"]
    model_files = sorted((workspace / "models").glob("*/*.json"))
    assert model_files
    model_fields = [f.name for f in dataclasses.fields(CanonicalPartModel)]
    for path in model_files:
        assert keys(path) == model_fields, path
    transfer(workspace, "result.json")
    assert keys(workspace / "result.json") == [
        "t_final", "relations", "per_relation_transforms", "objective", "diagnostics",
        "relation_set"]
    assert run("eval", "--config", write_config(workspace)) == 0
    report = json.loads((workspace / "out" / "report.json").read_text())
    trial_fields = [f.name for f in dataclasses.fields(TrialRecord) if f.name != "wall_time"]
    assert [list(trial) for trial in report["trials"]] == [trial_fields] * len(report["trials"])


# Each case: the command, the files it reads (the demo marked "DEMO"), and
# the stage its error names.
MALFORMED = {
    "demo_is_a_list": ("transfer", {"demo.json": [], "scene.json": {}}, "loading inputs"),
    "scene_parts_is_a_list": (
        "transfer",
        {"demo.json": "DEMO", "scene.json": {"object": {"category": "mug", "parts": []}}},
        "loading inputs",
    ),
    # A scene file holds its object under "object"; a bare object is refused.
    "scene_is_a_bare_object": (
        "transfer",
        {"demo.json": "DEMO", "scene.json": {"category": "mug", "parts": {"cup": {
            "points": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]]}}}},
        "loading inputs",
    ),
    "manifest_train_is_a_list": ("train", {"manifest.json": {"train": ["mug"]}}, "reading dataset"),
    "training_file_is_missing": (
        "train", {"manifest.json": {"train": {"mug": ["absent.json"]}}}, "reading dataset"),
    "training_file_lacks_its_object": (
        "train",
        {"manifest.json": {"train": {"mug": ["mug.json"]}}, "mug.json": {"spec": {}}},
        "reading dataset",
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_file_exits_1_without_a_traceback(tmp_path, case):
    command, files, stage = MALFORMED[case]
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    for name, payload in files.items():
        if payload == "DEMO":
            payload = to_json(generate_demo_scene("mug_on_rack"))
        (dataset / name).write_text(json.dumps(payload))
    argv = [command, "--config", write_config(tmp_path)]
    if command == "transfer":
        scene = str(dataset / "scene.json")
        argv += ["--demo", str(dataset / "demo.json"), "--scene-a", scene, "--scene-b", scene]
    proc = run_script(*argv)
    assert proc.returncode == 1, proc.stderr
    assert f"error: {stage}: " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("culprit", ["demo", "scene_a", "scene_b", "training_file", "model_file"])
def test_malformed_input_error_names_its_file(tmp_path, capsys, culprit):
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    demo = to_json(generate_demo_scene("mug_on_rack"))
    malformed = {"object": {"category": "mug", "parts": []}}
    if culprit == "training_file":
        files = {"manifest.json": {"train": {"mug": ["mug.json"]}, "demo": "demo.json"},
                 "demo.json": demo, "mug.json": {"spec": {}}}
        culprit_path = dataset / "mug.json"
        argv = ["train"]
    else:
        files = {"demo.json": demo, "scene_a.json": {"object": demo["object_a"]},
                 "scene_b.json": {"object": demo["object_b"]}}
        if culprit == "model_file":
            # The first model file transfer reads: object a's first selected part.
            culprit_path = tmp_path / "models" / f"{min(SELECTED_PARTS['mug_on_rack'])}.json"
            culprit_path.parent.mkdir(parents=True)
            culprit_path.write_text("[]")
        else:
            files[f"{culprit}.json"] = [] if culprit == "demo" else malformed
            culprit_path = dataset / f"{culprit}.json"
        argv = ["transfer", "--demo", str(dataset / "demo.json"),
                "--scene-a", str(dataset / "scene_a.json"),
                "--scene-b", str(dataset / "scene_b.json")]
    for name, payload in files.items():
        (dataset / name).write_text(json.dumps(payload))
    assert run(*argv, "--config", write_config(tmp_path)) == 1
    err = capsys.readouterr().err
    assert f": {culprit_path}: " in err, err
    named = [p for p in [*(dataset / name for name in files), culprit_path] if str(p) in err]
    assert set(named) == {culprit_path}, err


UNKNOWN_KEYS = {
    "icp": {"icp": {}},
    # jobs comes from --jobs alone, and the file spells master_seed `seed`.
    "jobs": {"jobs": 2},
    "master_seed": {"master_seed": 1},
    "pipeline.symmetric_objective": {"pipeline": {"symmetric_objective": True}},
    "pipeline.refine_iterations": {"pipeline": {"refine_iterations": 40}},
    # Removed settings: labeling uses label_parts' defaults, and the contact
    # and subset caps are fixed.
    "pipeline.k_max": {"pipeline": {"k_max": 16}},
    "pipeline.label_ratio": {"pipeline": {"label_ratio": 0.3}},
    "pipeline.adjacency_scale": {"pipeline": {"adjacency_scale": 0.05}},
    "pipeline.max_relation_pairs": {"pipeline": {"max_relation_pairs": 4}},
}


@pytest.mark.parametrize("key", list(UNKNOWN_KEYS))
def test_unknown_config_key_exits_2(tmp_path, key):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run("gen", "--config", write_config(tmp_path, **UNKNOWN_KEYS[key])) == 2
    assert f"unknown config key {key}" in err.getvalue()


# Each case: an override and the dotted key its error names. The file's
# `seed` is the experiment's master_seed.
WRONG_VALUES = {
    'seed="abc"': ('seed="abc"', "master_seed"),
    "seed=1.5": ("seed=1.5", "master_seed"),
    "seed=-1": ("seed=-1", "master_seed"),
    "count=1.5": ("count=1.5", "count"),
    "points_per_part=50.5": ("points_per_part=50.5", "points_per_part"),
    "pipeline.inference.restarts=true": (
        "pipeline.inference.restarts=true", "pipeline.inference.restarts"),
    "pipeline.delta_scale=false": ("pipeline.delta_scale=false", "pipeline.delta_scale"),
    "task=3": ("task=3", "task"),
}


@pytest.mark.parametrize("case", list(WRONG_VALUES))
def test_config_value_of_the_wrong_type_exits_2_without_a_traceback(tmp_path, case):
    override, key = WRONG_VALUES[case]
    proc = run_script("gen", "--config", write_config(tmp_path), "--set", override)
    assert proc.returncode == 2, proc.stderr
    assert "error: bad config: " in proc.stderr
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ["gen"], ["train"], ["transfer", "--demo", "d", "--scene-a", "a", "--scene-b", "b"]],
    ids=["gen", "train", "transfer"])
def test_jobs_is_rejected_where_it_does_nothing(command):
    # Only eval runs trials, so only eval takes --jobs.
    with contextlib.redirect_stderr(io.StringIO()) as err, pytest.raises(SystemExit) as exc:
        run(*command, "--jobs", "2")
    assert exc.value.code == 2
    assert "--jobs" in err.getvalue()


def test_eval_rejects_zero_jobs():
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run("eval", "--jobs", "0") == 2
    assert "--jobs must be >= 1" in err.getvalue()


def test_gen_draws_control_scenes_at_the_training_width(tmp_path):
    # The control family is the family the models train on, at any width.
    assert run("gen", "--config", write_config(tmp_path, train_width=0.3, count=4)) == 0
    dataset = tmp_path / "dataset"
    manifest = json.loads((dataset / "manifest.json").read_text())
    spread = 0.0
    for name in (name for pair in manifest["heldout"] for name in pair):
        spec = json.loads((dataset / name).read_text())["spec"]
        defaults = CATEGORY_DEFAULTS[spec["category"]]
        spread = max(spread, *(
            abs(value / defaults[key] - 1.0)
            for key, value in spec["params"].items() if defaults[key]))
    assert spread > 0.15


def test_gen_rejects_raised_peg_off_the_rack_task(tmp_path):
    config = write_config(tmp_path, task="bowl_on_mug", test_family="raised_peg")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run("gen", "--config", config) == 2
    assert "raised_peg" in err.getvalue()
    assert not (tmp_path / "dataset").exists()


OUT_OF_RANGE = {
    "train_instances": ({"train_instances": 1}, "train_instances"),
    "points_per_part": ({"points_per_part": 0}, "points per part"),
    "train_points_per_part": ({"train_points_per_part": 0}, "points per part"),
    "penetration_tolerance": ({"penetration_tolerance": -1e-3}, "penetration_tolerance"),
    "latent_dim": ({"latent_dim": 0}, "latent_dim"),
    "master_seed": ({"master_seed": -1}, "master_seed"),
    # Values the config once accepted but generation or training could not use.
    "points_per_part=9": ({"points_per_part": 9}, "points per part"),
    "train_points_per_part=9": ({"train_points_per_part": 9}, "points per part"),
    "latent_dim=train_instances": ({"train_instances": 3, "latent_dim": 3}, "latent_dim"),
    "train_width=NaN": ({"train_width": float("nan")}, "train_width"),
    "train_width=inf": ({"train_width": float("inf")}, "train_width"),
    "train_width=1": ({"train_width": 1.0}, "train_width"),
    "train_width<0": ({"train_width": -0.1}, "train_width"),
    # A repeated method would record every trial twice and double the SE's n.
    'methods=["PSW", "PSW"]': ({"methods": (METHOD_PARTS, METHOD_PARTS)}, "methods"),
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE))
def test_experiment_config_rejects_out_of_range_values(case):
    values, message = OUT_OF_RANGE[case]
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**values)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("method", [METHOD_PARTS, METHOD_WHOLE])
def test_eval_trains_with_the_configured_cpd_and_latent_dim(tmp_path, monkeypatch, method):
    seen = []

    def record(instances, labels=None, d=None, cpd=CpdConfig(), part_category="part"):
        seen.append((d, cpd, part_category))
        raise _Stop

    monkeypatch.setattr(evaluation, "train_part_model", record)
    config = write_config(tmp_path, methods=[method], latent_dim=1, cpd={"beta": 0.7, "lam": 3.0})
    with pytest.raises(_Stop):
        run("eval", "--config", config)
    d, cpd, part_category = seen[0]
    assert d == 1
    assert cpd == CpdConfig(beta=0.7, lam=3.0)
    assert part_category.endswith("/whole") == (method == METHOD_WHOLE)


def test_train_writes_the_models_eval_trains(tmp_path):
    # `train` labels objects read back from `gen`'s files, `eval` labels the
    # objects it generates; one config must give byte-equal models either
    # way, and only those of the demo's selected relations.
    for task, selected in SELECTED_PARTS.items():
        root = tmp_path / task
        root.mkdir()
        config = write_config(root, task=task, seed=3, count=0)
        assert run("gen", "--config", config) == 0
        assert run("train", "--config", config) == 0
        model_dir = root / "models"
        assert sorted(p.relative_to(model_dir).as_posix() for p in model_dir.rglob("*.json")) \
            == sorted([f"{name}.json" for name in selected] + ["training_log.json"])
        exp = cli.load_run_config(config, []).experiment
        compared = 0
        for category, seed in evaluation.training_seeds(exp):
            parts = {name.partition("/")[2] for name in selected
                     if name.partition("/")[0] == category}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                models = evaluation.train_category_models(category, seed, exp, parts)
            for part, model in models.items():
                written = (model_dir / category / f"{part}.json").read_text()
                assert written == json.dumps(to_json(model)), f"{task}: {category}/{part}"
                compared += 1
        assert compared == len(selected), task


def test_train_names_the_part_a_training_object_lacks(workspace, capsys):
    dataset = workspace / "dataset"
    manifest = json.loads((dataset / "manifest.json").read_text())
    second = dataset / manifest["train"]["mug"][1]
    payload = json.loads(second.read_text())
    del payload["object"]["parts"]["handle"]
    second.write_text(json.dumps(payload))
    assert run("train", "--config", write_config(workspace)) == 1
    err = capsys.readouterr().err
    assert "error: training 'mug': training instance 1 of 'mug' has no part 'handle'" in err, err


def test_training_a_part_no_instance_has_names_it():
    objects = [generate(default_spec("mug", seed=s, points_per_part=10))[0] for s in range(2)]
    with pytest.raises(ValueError, match="training instance 0 of 'mug' has no part 'spout'"):
        evaluation.train_models_from_objects("mug", objects, parts={"cup", "spout"})


def trained_models(monkeypatch, cfg) -> tuple[str, list[str]]:
    """run_experiment's report as sorted JSON, and the part_category of each model it trains."""
    seen = []
    train_part_model = evaluation.train_part_model

    def record(*args, part_category="part", **kwargs):
        seen.append(part_category)
        return train_part_model(*args, part_category=part_category, **kwargs)

    with monkeypatch.context() as patch, warnings.catch_warnings():
        patch.setattr(evaluation, "train_part_model", record)
        warnings.simplefilter("ignore", UserWarning)
        report = evaluation.run_experiment(cfg)
    return json.dumps(report_to_dict(report), sort_keys=True), seen


@pytest.mark.parametrize("task", list(SELECTED_PARTS))
def test_eval_trains_only_the_part_models_its_demo_reads(monkeypatch, task):
    cfg = dataclasses.replace(TINY_EXPERIMENT, task=task)
    report, seen = trained_models(monkeypatch, cfg)
    assert len(seen) == len(set(seen))
    assert {c for c in seen if not c.endswith("/whole")} == SELECTED_PARTS[task]
    assert {c for c in seen if c.endswith("/whole")} == {
        f"{category}/whole" for category in task_categories(task)}

    # PSW trained on every part, as train does, gives the same report.
    train_category_models = evaluation.train_category_models
    monkeypatch.setattr(
        evaluation, "train_category_models",
        lambda category, seed, cfg, parts=None: train_category_models(category, seed, cfg),
    )
    every_part_report, every_part = trained_models(monkeypatch, cfg)
    assert set(every_part) > set(seen)
    assert every_part_report == report


@pytest.mark.parametrize(
    "methods", [(METHOD_PARTS, METHOD_WHOLE), (METHOD_WHOLE,)], ids=["both", "IW_only"])
def test_eval_of_a_demo_without_contacts_fails_before_training(monkeypatch, methods):
    def refuse(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr(evaluation, "train_part_model", refuse)
    cfg = dataclasses.replace(
        TINY_EXPERIMENT, methods=methods,
        pipeline=dataclasses.replace(TINY_EXPERIMENT.pipeline, delta_scale=1e-6),
    )
    with pytest.raises(ValueError, match="no interaction found in demonstration"):
        evaluation.run_experiment(cfg)


def test_worker_pool_gives_the_one_process_report():
    reports = []
    for jobs in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            report = evaluation.run_experiment(dataclasses.replace(TINY_EXPERIMENT, jobs=jobs))
        reports.append(json.dumps(report_to_dict(report), sort_keys=True))
    assert reports[0] == reports[1]


def test_timings_record_the_blas_thread_variables(tmp_path, monkeypatch):
    report = ExperimentReport({"task": "mug_on_rack"}, (), {}, {})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    write_report(report, tmp_path / "unset")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    write_report(report, tmp_path / "set")
    timings = json.loads((tmp_path / "set" / "timings.json").read_text())
    assert timings["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
    unset = json.loads((tmp_path / "unset" / "timings.json").read_text())
    assert unset["blas_threads"]["OPENBLAS_NUM_THREADS"] is None
    # The thread variables stay out of the reproducible report.
    report_bytes = (tmp_path / "set" / "report.json").read_bytes()
    assert report_bytes == (tmp_path / "unset" / "report.json").read_bytes()
    assert b"blas_threads" not in report_bytes
