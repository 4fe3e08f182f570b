"""Tests of the benchmark itself, on tiny versions of each workload."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import lcv.harness  # noqa: E402

TINY = {
    "desk_train": replace(bw.WORKLOADS["desk_train"], geometry=bw.Geometry(8, 2, 2, 1, 3),
                          instances=2, steps=2),
    "wide_kernel": replace(bw.WORKLOADS["wide_kernel"], geometry=bw.Geometry(4, 2, 10, 1, 3),
                           instances=2, steps=2, scored_train_calls=2),
    "paper_eval": replace(bw.WORKLOADS["paper_eval"], geometry=bw.Geometry(10, 2, 4, 2, 5),
                          instances=2, steps=1),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_is_bitwise_repeatable(name, tmp_path):
    a = bw.run_workload(TINY[name], 3, 0.05, tmp_path / "a")
    b = bw.run_workload(TINY[name], 3, 0.05, tmp_path / "b")
    for key in ("aepe_learned", "aepe_identity"):
        assert a["metrics"][key][0] == b["metrics"][key][0]
    for key in ("fl_learned_pct", "fl_identity_pct", "input_sha256"):
        assert a["details"][key] == b["details"][key]


@pytest.mark.parametrize("name", sorted(TINY))
def test_other_seed_gives_other_inputs(name, tmp_path):
    a = bw.run_workload(TINY[name], 3, 0.05, tmp_path / "a")
    b = bw.run_workload(TINY[name], 4, 0.05, tmp_path / "b")
    assert a["details"]["input_sha256"] != b["details"]["input_sha256"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_spans_nest_inside_their_parents(name, tmp_path):
    out = bw.run_traced(TINY[name], 3, 0.05, tmp_path)
    tracer = out["tracer"]
    assert tracer.spans
    child_total = [0.0] * len(tracer.spans)
    for _, start, end, parent in tracer.spans:
        assert end >= start
        if parent >= 0:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end
            child_total[parent] += end - start
    for (_, start, end, _), children in zip(tracer.spans, child_total):
        assert children <= end - start
    assert all(s >= 0.0 for s in tracer.self_times())
    assert out["ledger"].failed == 0, out["details"]["problems"]


def test_absent_target_is_reported_and_bindings_restored():
    original = lcv.harness.cost_volume_bilinear
    targets = bench_trace.TARGETS + (("harness.gone", "lcv.harness", "_no_such_name", None),)
    with bench_trace.Tracer(targets) as tracer:
        assert lcv.harness.cost_volume_bilinear is not original
        f1, f2, _ = lcv.harness.generate(lcv.SyntheticSpec(4, 4, 2, 1, 1, seed=0))
    assert lcv.harness.cost_volume_bilinear is original
    assert tracer.absent == ["harness.gone"]
    summary = tracer.summary()
    assert summary["harness.gone"] == {"calls": 0, "self_s": 0.0}
    assert summary["harness.generate"]["calls"] == 1


def test_untraced_run_never_imports_the_tracer(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "bench_trace", None)
    out = bw.run_workload(TINY["desk_train"], 0, 0.05, tmp_path)
    assert out["details"]["train_calls"] >= 1
    assert out["details"]["eval_calls"] >= bw.EVAL_MIN_CALLS
    # Two steps on a tiny problem need not beat W = I; nothing else may fail.
    assert set(out["details"]["problems"]) <= {"learned kernel does not beat W = I on held-out AEPE"}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed_with_its_unit(trace, section, monkeypatch, capsys):
    run = _load_run()
    monkeypatch.setattr(bw, "WORKLOADS", TINY)
    code = run.main(["--workload", "wide_kernel", "--seed", "1", "--seconds", "0.05",
                     "--trace", str(trace)])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    printed = {name: m["unit"] for name, m in last["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
