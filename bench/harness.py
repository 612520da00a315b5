"""Workload runners, correctness gates and metrics of the partwarp benchmark.

Every workload runs the real user path in this one process, one trial after
another (a closed loop with one client):

* ``mug_on_rack`` calls ``evaluation.run_experiment`` with both methods,
  ``jobs=1``;
* ``cli_mug_on_rack`` calls ``cli.main`` for ``gen``, ``train`` and one
  ``transfer`` per held-out scene, in a scratch directory.

End-to-end numbers come only from untraced passes. A traced run alternates
untraced and traced passes of the seed's draw 0; a traced pass records spans
around the public functions of each module (see ``tracing.py``) and gives
the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from partwarp import cli, evaluation
from partwarp.evaluation import METHOD_PARTS, METHOD_WHOLE, ExperimentConfig, report_to_dict
from partwarp.geom import transform_from_dict
from partwarp.shapemodel import InferenceConfig
from partwarp.synth import features, generate, spec_from_dict
from partwarp.transfer import PipelineConfig, object_from_dict

import tracing

METHODS = (METHOD_PARTS, METHOD_WHOLE)
PENETRATION_TOLERANCE = 1e-3


@dataclass(frozen=True)
class Sizing:
    """How much work one pass does; the same for every seed."""

    trials: int  # paired trials (eval) or held-out scenes (CLI) per pass
    draws: int  # independent passes (training set, demo fit, scenes) per seed
    inference: InferenceConfig = InferenceConfig(restarts=1, yaw_init_count=4, max_evals=60)
    train_instances: int = 3
    train_points_per_part: int = 80
    points_per_part: int = 200


@dataclass(frozen=True)
class Workload:
    task: str
    kind: str  # "eval" or "cli"
    sizing: Sizing


# Enough draws that a seed's medians do not hinge on the label keys a few
# draws' models keep; one cycle takes 30-35 s on a 2-core machine.
WORKLOADS = {
    "mug_on_rack": Workload("mug_on_rack", "eval", Sizing(trials=2, draws=17, points_per_part=400)),
    "cli_mug_on_rack": Workload("mug_on_rack", "cli", Sizing(trials=2, draws=30)),
}


def draw_seed(seed: int, draw: int, draws: int) -> int:
    """Program seed of one draw: seeds 0, 1, ... own disjoint blocks."""
    return seed * draws + draw


@dataclass
class PassResult:
    """One untraced or traced run of a workload's user path."""

    setup_s: float
    total_s: float
    digest: str
    transfer_s: dict[str, list[float]] = field(default_factory=dict)
    success: dict[str, list[bool]] = field(default_factory=dict)
    penetration_mm: dict[str, list[float]] = field(default_factory=dict)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.transfer_s.values())


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# eval workloads
# ---------------------------------------------------------------------------


def eval_pass(task: str, seed: int, sizing: Sizing, tracer: tracing.Tracer | None = None) -> PassResult:
    """One ``run_experiment`` call.

    Setup is the call's wall time outside its transfers, which
    ``run_experiment`` times itself: training both methods' models and
    processing the demo, plus drawing and judging each trial's scene
    (well under 1% of it).
    """
    cfg = ExperimentConfig(
        task=task,
        n_trials=sizing.trials,
        master_seed=seed,
        test_family="control",
        methods=METHODS,
        points_per_part=sizing.points_per_part,
        train_points_per_part=sizing.train_points_per_part,
        train_instances=sizing.train_instances,
        penetration_tolerance=PENETRATION_TOLERANCE,
        pipeline=PipelineConfig(inference=sizing.inference),
        jobs=1,
    )
    with _traced(tracer):
        start = time.perf_counter()
        report = evaluation.run_experiment(cfg)
        total = time.perf_counter() - start

    setup = total - sum(t.wall_time for t in report.trials)
    out = PassResult(setup, total, _digest(report_to_dict(report)))
    for t in report.trials:
        out.transfer_s.setdefault(t.method, []).append(t.wall_time)
        out.success.setdefault(t.method, []).append(t.success)
        if t.penetration_depth is not None:
            out.penetration_mm.setdefault(t.method, []).append(1e3 * t.penetration_depth)
        out.failed += bool(t.note)
    return out


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


def _cli(argv: Sequence[str]) -> tuple[int, str]:
    """Run ``partwarp <argv>`` in-process; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


def _proper_rotation(payload) -> bool:
    rot = np.asarray(payload["rotation"], dtype=np.float64).reshape(3, 3)
    return bool(
        np.all(np.isfinite(rot))
        and np.allclose(rot.T @ rot, np.eye(3), atol=1e-9)
        and abs(np.linalg.det(rot) - 1.0) < 1e-9
    )


def judge_cli_result(task: str, scene_a: dict, scene_b: dict, result: dict) -> tuple[bool, float]:
    """Judge one ``partwarp transfer`` result on its scene's exact geometry.

    The same check ``run_experiment`` makes on a trial: the placed object
    against the reference object's analytic SDF and the task predicate.
    """
    spec_a, pose_a = spec_from_dict(scene_a["spec"]), transform_from_dict(scene_a["pose"])
    spec_b, pose_b = spec_from_dict(scene_b["spec"]), transform_from_dict(scene_b["pose"])
    t_final = transform_from_dict(result["t_final"])
    _, sdf_b, _ = generate(spec_b)
    placed = object_from_dict(scene_a["object"]).transformed(t_final)
    ok, pen, _ = evaluation.check_success(
        task,
        placed,
        sdf_b.transformed(pose_b),
        features(spec_a).transformed(t_final.compose(pose_a)),
        features(spec_b).transformed(pose_b),
        PENETRATION_TOLERANCE,
    )
    return ok, pen


def _tree_digest(root: Path, skip: str) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != skip):
        data = path.read_bytes()
        size += len(data)
        h.update(str(path.relative_to(root)).encode() + b"\0" + data)
    return h.hexdigest(), size


def cli_pass(
    task: str, seed: int, sizing: Sizing, workdir: Path, tracer: tracing.Tracer | None = None
) -> PassResult:
    """``gen`` and ``train`` (setup), then one ``transfer`` per held-out scene.

    Results are judged after the timed (and traced) part of the pass.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli_", dir=workdir))
    try:
        dataset, out_dir = work / "dataset", work / "out"
        config = {
            "dataset_dir": str(dataset),
            "model_dir": str(work / "models"),
            "output_dir": str(out_dir),
            "seed": seed,
            "task": task,
            "count": sizing.trials,
            "test_family": "control",
            "points_per_part": sizing.points_per_part,
            "train_points_per_part": sizing.train_points_per_part,
            "train_instances": sizing.train_instances,
            "penetration_tolerance": PENETRATION_TOLERANCE,
            "pipeline": {"inference": {
                "restarts": sizing.inference.restarts,
                "yaw_init_count": sizing.inference.yaw_init_count,
                "max_evals": sizing.inference.max_evals,
            }},
        }
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config))
        common = ["--config", str(config_path)]

        problems: list[str] = []
        times: list[float] = []
        codes: list[int] = []
        with _traced(tracer):
            start = time.perf_counter()
            for command in ("gen", "train"):
                code, err = _cli([command, *common])
                if code != 0:
                    problems.append(f"partwarp {command} exited {code}: {err.strip()}")
            setup = time.perf_counter() - start
            manifest = json.loads((dataset / "manifest.json").read_text())
            for i, (name_a, name_b) in enumerate(manifest["heldout"]):
                t0 = time.perf_counter()
                code, err = _cli([
                    "transfer", *common,
                    "--demo", str(dataset / manifest["demo"]),
                    "--scene-a", str(dataset / name_a),
                    "--scene-b", str(dataset / name_b),
                    "--out", str(out_dir / f"transfer_{i:02d}.json"),
                ])
                times.append(time.perf_counter() - t0)
                codes.append(code)
                if code != 0:
                    problems.append(f"partwarp transfer on scene {i} exited {code}: {err.strip()}")
            total = time.perf_counter() - start

        digest, size = _tree_digest(work, skip=config_path.name)
        out = PassResult(setup, total, digest, problems=problems, bytes_written=size)
        out.transfer_s[METHOD_PARTS] = times
        out.success[METHOD_PARTS] = []
        out.failed = sum(code != 0 for code in codes)
        for i, (name_a, name_b) in enumerate(manifest["heldout"]):
            if codes[i] != 0:
                out.success[METHOD_PARTS].append(False)
                continue
            try:
                result = json.loads((out_dir / f"transfer_{i:02d}.json").read_text())
                if not _proper_rotation(result["t_final"]):
                    raise ValueError("t_final is not a proper rotation")
                ok, pen = judge_cli_result(
                    task,
                    json.loads((dataset / name_a).read_text()),
                    json.loads((dataset / name_b).read_text()),
                    result,
                )
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"scene {i}: result cannot be judged: {exc}")
                out.success[METHOD_PARTS].append(False)
                continue
            out.success[METHOD_PARTS].append(ok)
            out.penetration_mm.setdefault(METHOD_PARTS, []).append(1e3 * pen)
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# trace points and per-layer metrics
# ---------------------------------------------------------------------------


def _cpd_attrs(args, kwargs, result) -> dict:
    return {"iters": len(result.objective_history), "converged": bool(result.converged)}


def _infer_attrs(args, kwargs, result) -> dict:
    model = args[0] if args else kwargs["model"]
    observed = args[1] if len(args) > 1 else kwargs["observed"]
    return {"pairs": len(observed) * model.point_count, "converged": bool(result.converged)}


def _points(name: str, sites: Sequence[str], attrs: Callable | None = None) -> list:
    attr = name.rpartition(".")[2]
    return [(f"partwarp.{site}", attr, name, attrs) for site in sites]


# Span name -> the partwarp modules its callers look the function up in.
TRACE_POINTS: list[tracing.TracePoint] = [
    *_points("registration.cpd_nonrigid", ["shapemodel"], _cpd_attrs),
    *_points("shapemodel.train_part_model", ["evaluation"]),
    *_points("shapemodel.infer", ["transfer"], _infer_attrs),
    *_points("shapemodel.load_model", ["cli"]),
    *_points("shapemodel.save_model", ["cli"]),
    *_points("transfer.label_parts", ["transfer", "evaluation", "cli"]),
    *_points("transfer.extract_interaction_points", ["transfer"]),
    *_points("transfer.select_relevant_relations", ["transfer"]),
    *_points("transfer.optimize_placement", ["transfer"]),
    *_points("transfer.process_demonstration", ["evaluation", "cli"]),
    *_points("transfer.transfer_skill", ["transfer", "evaluation", "cli"]),
    *_points("transfer.whole_object_baseline", ["evaluation"]),
    *_points("transfer.load_demo", ["cli"]),
    *_points("evaluation.train_category_models", ["evaluation"]),
    *_points("evaluation.train_whole_models", ["evaluation"]),
    *_points("evaluation.train_models_from_objects", ["evaluation", "cli"]),
    *_points("evaluation.check_success", ["evaluation"]),
    *_points("synth.generate", ["synth", "evaluation", "cli"]),
    *_points("cli.cmd_gen", ["cli"]),
    *_points("cli.cmd_train", ["cli"]),
    *_points("cli.cmd_transfer", ["cli"]),
    *_points("cli._load_scene_object", ["cli"]),
    *_points("cli._dump", ["cli"]),
]

TRAIN_SPANS = (
    "evaluation.train_category_models",
    "evaluation.train_whole_models",
    "evaluation.train_models_from_objects",
)
TRANSFER_SPANS = ("transfer.transfer_skill", "transfer.whole_object_baseline")
CLI_IO_SPANS = (
    "transfer.load_demo",
    "shapemodel.load_model",
    "shapemodel.save_model",
    "cli._load_scene_object",
    "cli._dump",
)


@contextlib.contextmanager
def _traced(tracer: tracing.Tracer | None):
    if tracer is None:
        yield
    else:
        with tracer.installed(TRACE_POINTS):
            yield


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: Sequence[tracing.Span]) -> dict[str, float]:
    """Per-layer numbers from one traced pass."""
    sel = tracing.select

    def seconds(*names, **where) -> float:
        return tracing.total_time(sel(spans, names, **where))

    cpd = sel(spans, ["registration.cpd_nonrigid"])
    infer = sel(spans, ["shapemodel.infer"])
    placement = sel(spans, ["transfer.optimize_placement"])
    generate_calls = sel(spans, ["synth.generate"])
    return {
        "registration.cpd_s": seconds("registration.cpd_nonrigid"),
        "registration.cpd_calls": len(cpd),
        "registration.cpd_iters": sum(s.attrs.get("iters", 0) for s in cpd),
        "registration.cpd_converged_frac": _frac(
            sum(s.attrs.get("converged", False) for s in cpd), len(cpd)
        ),
        "shapemodel.infer_s.setup": seconds(
            "shapemodel.infer", under=["transfer.process_demonstration"]
        ),
        "shapemodel.infer_s.transfer": seconds(
            "shapemodel.infer", under=TRANSFER_SPANS,
            not_under=["transfer.process_demonstration"],
        ),
        "shapemodel.infer_calls": len(infer),
        "shapemodel.infer_converged_frac": _frac(
            sum(s.attrs.get("converged", False) for s in infer), len(infer)
        ),
        "shapemodel.infer_point_pairs": sum(s.attrs.get("pairs", 0) for s in infer),
        "shapemodel.load_model_s": seconds("shapemodel.load_model"),
        "transfer.process_demo_s": seconds("transfer.process_demonstration"),
        "transfer.label_parts_s": seconds("transfer.label_parts"),
        "transfer.extract_s": seconds("transfer.extract_interaction_points"),
        "transfer.select_s": seconds("transfer.select_relevant_relations"),
        "transfer.placement_s": tracing.total_time(placement),
        "transfer.placement_calls": len(placement),
        "transfer.placement_ok_frac": _frac(sum(s.ok for s in placement), len(placement)),
        "evaluation.train_s": seconds(*TRAIN_SPANS),
        "evaluation.check_success_s": seconds("evaluation.check_success"),
        "synth.generate_s": tracing.total_time(generate_calls),
        "synth.generate_calls": len(generate_calls),
        "cli.gen_s": seconds("cli.cmd_gen"),
        "cli.train_s": seconds("cli.cmd_train"),
        "cli.transfer_s": seconds("cli.cmd_transfer"),
        "cli.io_s": seconds(*CLI_IO_SPANS),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_pass(
    workload: Workload, seed: int, workdir: Path, tracer: tracing.Tracer | None = None
) -> PassResult:
    with warnings.catch_warnings():
        # Small training sets trip the program's "outside 5..10 instances"
        # advisory on every model; it is expected at this sizing.
        warnings.simplefilter("ignore", UserWarning)
        if workload.kind == "eval":
            return eval_pass(workload.task, seed, workload.sizing, tracer)
        return cli_pass(workload.task, seed, workload.sizing, workdir, tracer)


def _gate(passes: Sequence[tuple[int, PassResult]]) -> list[str]:
    """Problems any (draw, pass) found, and every draw whose passes disagree."""
    problems = [p for _, r in passes for p in r.problems]
    for j in sorted({j for j, _ in passes}):
        if len({r.digest for i, r in passes if i == j}) > 1:
            problems.append(f"draw {j}: results differ between passes of one seed")
    return problems


def _counts(passes: Sequence[PassResult]) -> dict[str, int]:
    return {
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
    }


def untraced_run(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """One untimed warm-up pass of draw 0, then whole cycles over the seed's
    draws while another cycle still fits in `seconds` (one cycle at least).

    A seed's timings vary with what its draw trains and fits, so one run
    pools many independent draws. Each metric is the median over draws of
    the draw's own median, so every draw weighs the same. The warm-up pass
    also takes part in the determinism gate.
    """
    draws = workload.sizing.draws
    seeds = [draw_seed(seed, j, draws) for j in range(draws)]
    passes: list[tuple[int, PassResult]] = [(0, run_pass(workload, seeds[0], workdir))]
    timed: list[tuple[int, PassResult]] = []
    start = cycle_start = time.perf_counter()
    while True:
        timed += [(j, run_pass(workload, seeds[j], workdir)) for j in range(draws)]
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            break
        cycle_start = now
    passes += timed

    def over_draws(values: Callable[[PassResult], list[float]]) -> float:
        return _median([
            _median([v for i, r in timed if i == j for v in values(r)]) for j in range(draws)
        ])

    metrics = {
        "setup_s": over_draws(lambda r: [r.setup_s]),
        "transfer_s_p50.PSW": over_draws(lambda r: r.transfer_s.get(METHOD_PARTS, [])),
        "total_s": over_draws(lambda r: [r.total_s]),
    }
    psw = sum(len(r.transfer_s.get(METHOD_PARTS, [])) for _, r in timed)
    samples = {"setup_s": len(timed), "transfer_s_p50.PSW": psw, "total_s": len(timed)}
    return {"metrics": metrics, "samples": samples, "problems": _gate(passes),
            "passes": len(passes), **_counts([r for _, r in passes])}


def quality_metrics(r: PassResult) -> tuple[dict[str, float], dict[str, int]]:
    """Outcome numbers of one pass, identical on every pass of one seed,
    and the sample count behind each."""
    metrics, samples = {}, {}
    for method in METHODS:
        flags = r.success.get(method, [])
        metrics[f"success_rate.{method}"] = _frac(sum(flags), len(flags))
        samples[f"success_rate.{method}"] = len(flags)
        pens = r.penetration_mm.get(method, [])
        metrics[f"evaluation.penetration_mm_p50.{method}"] = _median(pens)
        samples[f"evaluation.penetration_mm_p50.{method}"] = len(pens)
    metrics["error_rate"] = _frac(r.failed, r.attempted)
    samples["error_rate"] = r.attempted
    iw = r.transfer_s.get(METHOD_WHOLE, [])
    metrics["transfer_s_p50.IW"] = _median(iw)
    samples["transfer_s_p50.IW"] = len(iw)
    return metrics, samples


def traced_run(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced and traced passes of the seed's draw 0, in alternating order,
    pair after pair until `seconds` elapse (one pair at least).

    Per-layer numbers come from the first traced pass, outcome numbers from
    the first untraced one; trace.overhead_frac compares the median totals
    of the two kinds.
    """
    program_seed = draw_seed(seed, 0, workload.sizing.draws)
    start = time.perf_counter()
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    spans: list[tracing.Span] = []
    while not plain or time.perf_counter() - start < seconds:
        for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            tracer = tracing.Tracer() if with_trace else None
            r = run_pass(workload, program_seed, workdir, tracer)
            if tracer is None:
                plain.append(r)
            else:
                spans = spans or tracer.spans
                traced.append(r)
    quality, samples = quality_metrics(plain[0])
    overhead = _median([r.total_s for r in traced]) / _median([r.total_s for r in plain]) - 1.0
    metrics = {
        **layer_metrics(spans),
        "cli.bytes_written": traced[0].bytes_written,
        "trace.overhead_frac": overhead,
        **quality,
    }
    samples["trace.overhead_frac"] = len(traced)
    return {
        "metrics": metrics,
        "samples": samples,
        "self_time_s": tracing.self_time_by_name(spans),
        "problems": _gate([(0, r) for r in plain + traced]),
        "passes": len(plain) + len(traced),
        **_counts(plain + traced),
    }
