"""partwarp benchmark: one command, end-to-end or per-layer numbers.

    python3 bench/run.py --workload mug_on_rack --seed 0 --seconds 20 --trace 0

Run it from the repository root. ``--trace 0`` measures the end-to-end
metrics on untraced passes; ``--trace 1`` alternates untraced and traced
passes of the same seed and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it list every
metric with its unit and sample count, and the environment. The exit code
is 1 when a correctness gate fails and 2 when the program is missing.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the load stays inside two cores
# and the reduction order, hence every report byte, is fixed per seed.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics, in file order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def environment(seed: int, workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seed": seed,
        "task": workload.task,
        "kind": workload.kind,
        "draws": workload.sizing.draws,
        "trials_per_draw": workload.sizing.trials,
        "inference": vars(workload.sizing.inference),
        "train_instances": workload.sizing.train_instances,
        "train_points_per_part": workload.sizing.train_points_per_part,
        "points_per_part": workload.sizing.points_per_part,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH",
                        help="also write the full record (environment, samples, self times)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "partwarp" / "__init__.py").is_file():
        print(f"error: no partwarp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}")
    workload = harness.WORKLOADS[args.workload]
    if args.trace:
        record = harness.traced_run(workload, args.seed, args.seconds, WORKDIR)
        units = metric_units("per_layer")
    else:
        record = harness.untraced_run(workload, args.seed, args.seconds, WORKDIR)
        units = metric_units("end_to_end")
    record["environment"] = environment(args.seed, workload)
    try:
        WORKDIR.rmdir()
    except OSError:
        pass

    for problem in record["problems"]:
        print(f"FAIL {problem}")
    samples = record["samples"]
    for name, unit in units.items():
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"{name:38s} {record['metrics'][name]:.6g} {unit}{n}")
    for name, seconds in record.get("self_time_s", {}).items():
        print(f"self {name:42s} {seconds:.4f} s")
    print("env " + json.dumps(record["environment"], sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": float(record["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
