"""Tests of the benchmark itself: workload runners, span arithmetic and reporting."""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from partwarp.shapemodel import InferenceConfig  # noqa: E402

TINY = harness.Sizing(
    trials=1,
    draws=2,
    inference=InferenceConfig(restarts=1, yaw_init_count=1, max_evals=8),
    train_instances=3,
    train_points_per_part=40,
    points_per_part=120,
)


# ---------------------------------------------------------------------------
# workload runners on a tiny budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("task", ["mug_on_rack", "teapot_pour_align"])
def test_eval_pass_smoke(task, tmp_path):
    r = harness.run_pass(harness.Workload(task, "eval", TINY), 0, tmp_path)
    assert r.attempted == 2 * TINY.trials
    assert set(r.transfer_s) == set(harness.METHODS)
    assert 0 < r.setup_s < r.total_s
    assert all(t > 0 for times in r.transfer_s.values() for t in times)
    assert len(r.digest) == 64 and not r.problems


def test_cli_pass_smoke_is_judged_and_deterministic(tmp_path):
    workload = harness.Workload("mug_on_rack", "cli", TINY)
    first = harness.run_pass(workload, 0, tmp_path)
    again = harness.run_pass(workload, 0, tmp_path)
    assert not first.problems and first.failed == 0
    assert len(first.transfer_s[harness.METHOD_PARTS]) == TINY.trials
    assert len(first.success[harness.METHOD_PARTS]) == TINY.trials
    assert len(first.penetration_mm[harness.METHOD_PARTS]) == TINY.trials
    assert first.bytes_written > 0
    assert first.digest == again.digest
    assert list(tmp_path.iterdir()) == []  # the scratch tree is removed


def test_traced_pass_matches_untraced_and_restores_functions(tmp_path):
    from partwarp import transfer

    original = transfer.infer
    record = harness.traced_run(harness.Workload("mug_on_rack", "eval", TINY), 0, 0.0, tmp_path)
    assert transfer.infer is original
    assert record["problems"] == []
    assert record["passes"] == 2 and record["samples"]["trace.overhead_frac"] == 1
    m = record["metrics"]
    assert m["shapemodel.infer_calls"] > 0 and m["registration.cpd_calls"] > 0
    assert m["shapemodel.infer_s.transfer"] > 0 and m["shapemodel.infer_s.setup"] > 0
    assert 0 <= m["transfer.placement_ok_frac"] <= 1
    assert set(run.metric_units("per_layer")) == set(m)


# ---------------------------------------------------------------------------
# span self time
# ---------------------------------------------------------------------------


def _fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_self_time_subtracts_direct_children_once():
    tracer = tracing.Tracer(clock=_fake_clock())
    leaf = tracer.wrap("leaf", lambda: None)

    def inner_fn():
        leaf()

    inner = tracer.wrap("inner", inner_fn)

    def outer_fn():
        inner()
        inner()

    tracer.wrap("outer", outer_fn)()
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "leaf", "inner", "leaf"]
    # outer 0..9, inner 1..4 and 5..8, each leaf 1 tick long
    durations = [s.duration for s in tracer.spans]
    assert durations == [9.0, 3.0, 1.0, 3.0, 1.0]
    assert tracing.self_times(tracer.spans) == [3.0, 2.0, 1.0, 2.0, 1.0]
    by_name = tracing.self_time_by_name(tracer.spans)
    assert by_name == {"outer": 3.0, "inner": 4.0, "leaf": 2.0}
    assert sum(by_name.values()) == tracer.spans[0].duration


def test_nested_wrappers_of_one_function_count_once():
    tracer = tracing.Tracer(clock=_fake_clock())
    twice = tracer.wrap("f", tracer.wrap("f", lambda: 7))
    assert twice() == 7
    outer, inner = tracer.spans
    assert inner.parent == 0
    assert tracing.select(tracer.spans, ["f"]) == [outer]
    assert tracing.total_time(tracing.select(tracer.spans, ["f"])) == outer.duration
    assert tracing.self_time_by_name(tracer.spans) == {"f": outer.duration}


def test_select_filters_by_ancestry_and_records_failures():
    tracer = tracing.Tracer(clock=_fake_clock())
    work = tracer.wrap("work", lambda: None)

    def boom():
        work()
        raise ValueError("no")

    setup = tracer.wrap("setup", lambda: work())
    failing = tracer.wrap("failing", boom)
    setup()
    with pytest.raises(ValueError):
        failing()
    assert [s.ok for s in tracer.spans] == [True, True, False, True]
    under_setup = tracing.select(tracer.spans, ["work"], under=["setup"])
    assert under_setup == [tracer.spans[1]]
    assert tracing.select(tracer.spans, ["work"], not_under=["setup"]) == [tracer.spans[3]]


def test_installed_patches_and_restores(monkeypatch):
    import types

    mod = types.ModuleType("fake_mod")
    mod.f = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_mod", mod)
    original = mod.f
    tracer = tracing.Tracer()
    attrs = lambda args, kwargs, result: {"in": args[0], "out": result}  # noqa: E731
    with tracer.installed([("fake_mod", "f", "fake.f", attrs)]):
        assert mod.f(1) == 2
    assert mod.f is original
    assert tracer.spans[0].attrs == {"in": 1, "out": 2}


# ---------------------------------------------------------------------------
# medians, sample counts and the output line
# ---------------------------------------------------------------------------


def _fake_pass(setup, total, psw, digest="d"):
    r = harness.PassResult(setup, total, digest)
    r.transfer_s = {"PSW": list(psw), "IW": [9.0] * len(psw)}
    r.success = {"PSW": [True] * len(psw), "IW": [False] * len(psw)}
    return r


def test_untraced_run_reports_medians_over_draws(monkeypatch, tmp_path):
    sizing = harness.Sizing(trials=2, draws=3)
    by_seed = {
        6: _fake_pass(1.0, 10.0, [0.1, 0.5]),
        7: _fake_pass(3.0, 30.0, [0.2, 0.6]),
        8: _fake_pass(2.0, 20.0, [0.3, 0.4]),
    }
    calls = []

    def fake_run_pass(workload, seed, workdir, tracer=None):
        calls.append(seed)
        return by_seed[seed]

    monkeypatch.setattr(harness, "run_pass", fake_run_pass)
    record = harness.untraced_run(harness.Workload("mug_on_rack", "eval", sizing), 2, 0.0, tmp_path)
    # seed 2 owns program seeds 6, 7, 8; draw 0 first runs once untimed
    assert calls == [6, 6, 7, 8]
    assert record["metrics"] == pytest.approx(
        {"setup_s": 2.0, "transfer_s_p50.PSW": 0.35, "total_s": 20.0}
    )
    assert list(record["metrics"]) == list(run.metric_units("end_to_end"))
    assert record["samples"] == {"setup_s": 3, "transfer_s_p50.PSW": 6, "total_s": 3}
    assert record["attempted"] == 16 and record["failed"] == 0
    assert record["problems"] == []


def test_untraced_run_weighs_every_draw_once(monkeypatch, tmp_path):
    import types

    clock = iter(range(100))
    # warm-up, then draws 0 and 1 in each of two cycles
    setups = iter([9.0, 1.0, 2.0, 3.0, 10.0])
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(harness, "run_pass", lambda *a, **k: _fake_pass(next(setups), 10.0, [0.1]))
    sizing = harness.Sizing(trials=1, draws=2)
    record = harness.untraced_run(harness.Workload("mug_on_rack", "eval", sizing), 0, 2.5, tmp_path)
    # the second cycle fits in 2.5 clock ticks, a third would not; draw 0
    # counts 2.0 and draw 1 6.0, where the median of all four passes is 2.5
    assert record["metrics"]["setup_s"] == pytest.approx(4.0)
    assert record["samples"]["setup_s"] == 4 and record["passes"] == 5


def test_untraced_run_flags_nondeterminism(monkeypatch, tmp_path):
    sizing = harness.Sizing(trials=1, draws=1)
    results = iter([_fake_pass(1.0, 2.0, [0.1], "a"), _fake_pass(1.0, 2.0, [0.1], "b")])
    monkeypatch.setattr(harness, "run_pass", lambda *a, **k: next(results))
    record = harness.untraced_run(harness.Workload("mug_on_rack", "eval", sizing), 0, 0.0, tmp_path)
    assert record["problems"] == ["draw 0: results differ between passes of one seed"]


def test_quality_metrics_counts_samples():
    r = _fake_pass(1.0, 2.0, [0.1, 0.2, 0.3])
    r.success["PSW"] = [True, False, True]
    r.failed = 1
    metrics, samples = harness.quality_metrics(r)
    assert metrics["success_rate.PSW"] == pytest.approx(2 / 3)
    assert metrics["success_rate.IW"] == 0.0
    assert metrics["error_rate"] == pytest.approx(1 / 6)
    assert metrics["transfer_s_p50.IW"] == 9.0
    assert samples["success_rate.PSW"] == 3 and samples["error_rate"] == 6
    assert samples["evaluation.penetration_mm_p50.PSW"] == 0


def test_last_line_holds_exactly_the_end_to_end_metrics(monkeypatch):
    record = {
        "metrics": {"setup_s": 1.5, "transfer_s_p50.PSW": 0.25, "total_s": 4.0},
        "samples": {"setup_s": 4, "transfer_s_p50.PSW": 12, "total_s": 4},
        "problems": [],
        "attempted": 24,
        "failed": 0,
    }
    monkeypatch.setattr(harness, "untraced_run", lambda *a: dict(record))
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "mug_on_rack", "--seed", "0", "--seconds", "1", "--trace", "0"])
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(run.metric_units("end_to_end"))
    assert result["metrics"]["transfer_s_p50.PSW"] == {"value": 0.25, "unit": "s"}
    assert any(line.startswith("transfer_s_p50.PSW") and "(n=12)" in line for line in lines)
    assert any(line.startswith("env ") for line in lines)


def test_benchmark_json_names_the_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert spec["paths"] == [HERE.name]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mug_on_rack", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
