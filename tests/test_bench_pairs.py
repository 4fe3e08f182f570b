"""The pairing and the aggregation of ``tools/bench_pairs.py`` on canned
``perfbench/run.py`` output; no benchmark is run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "train_step_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "eval_pairs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _stdout(commit, step_ms, rate, failed=0, cpu="cpu A", attempted=100):
    """The three lines ``perfbench/run.py --trace 0`` prints."""
    manifest = {"git_commit": commit, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
                "lcv": "0.1.0", "blas": "openblas 0.3", "blas_threads": {"OPENBLAS_NUM_THREADS": "1"},
                "nproc": 2, "cpu_model": cpu, "l2_cache": "4 MiB", "l3_cache": "32 MiB",
                "workload": {"name": "w"}, "seed": 1, "seconds": 55.0}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {"train_step_ms": {"value": step_ms, "unit": "ms"},
                          "eval_pairs_per_s": {"value": rate, "unit": "1/s"}}}
    return "\n".join(json.dumps(line) for line in
                     ({"manifest": manifest}, {"details": {"problems": []}}, result)) + "\n"


def _runs(parent, change):
    """``runs`` for one workload from per-pair ``(step_ms, rate)`` values."""
    return {"w": {
        "parent": [bench_pairs.parse_run(_stdout("p", *values)) for values in parent],
        "change": [bench_pairs.parse_run(_stdout("c", *values)) for values in change],
    }}


def test_parse_run_takes_the_manifest_and_the_last_line():
    run = bench_pairs.parse_run(_stdout("abc", 9.5, 20.0, failed=1))
    assert run["manifest"]["git_commit"] == "abc"
    assert run["result"]["metrics"]["train_step_ms"]["value"] == 9.5
    assert (run["result"]["correct"], run["result"]["failed"]) == (False, 1)


@pytest.mark.parametrize("text, seeds", [("201-210", list(range(201, 211))), ("7", [7])])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


def test_aggregate_counts_wins_ties_and_worse_by_per_direction():
    parent = [(10.0, 20.0), (12.0, 21.0), (11.0, 22.0), (13.0, 23.0)]
    change = [(8.0, 25.0), (12.0, 21.0), (9.0, 20.0), (14.0, 30.0)]
    out = bench_pairs.aggregate(_runs(parent, change), METRICS)["w"]
    assert out["correct"] == {"parent": [True] * 4, "change": [True] * 4}
    assert out["failed_over_attempted"]["change"] == ["0/100"] * 4

    step = out["metrics"]["train_step_ms"]
    assert (step["unit"], step["better"], step["bound"]) == ("ms", "lower", 0.25)
    # Lower is better: the change wins pairs 0 and 2 and ties pair 1.
    assert (step["change_wins"], step["ties"]) == (2, 1)
    assert step["parent"]["runs"] == [10.0, 12.0, 11.0, 13.0]
    q1, median, q3 = np.percentile([8.0, 12.0, 9.0, 14.0], [25, 50, 75])
    assert step["change"] == {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
                              "runs": [8.0, 12.0, 9.0, 14.0]}
    assert step["change_worse_by"] == (10.5 - 11.5) / 11.5

    rate = out["metrics"]["eval_pairs_per_s"]
    # Higher is better: the change wins pairs 0 and 3; worse_by is signed so
    # that a higher change median reads as negative.
    assert (rate["change_wins"], rate["ties"]) == (2, 1)
    assert rate["change_worse_by"] == -(23.0 - 21.5) / 21.5


@pytest.mark.parametrize("parent, change, within, unresolved", [
    ([10.0, 11.0, 12.0, 13.0], [11.0, 12.0, 13.0, 14.0], True, False),  # 8.7% worse
    ([10.0, 11.0, 12.0, 13.0], [15.0, 16.0, 17.0, 18.0], False, False),  # 43% worse
    ([5.0, 10.0, 15.0, 20.0], [6.0, 11.0, 16.0, 21.0], True, True),  # parent IQR 60% of median
    ([5.0, 10.0, 15.0, 20.0], [1.0, 2.0, 3.0, 4.0], True, False),  # every change run better
], ids=["inside_bound", "beyond_bound", "wide_spread", "wide_spread_every_run_better"])
def test_compare_states_the_no_regression_verdict(parent, change, within, unresolved):
    got = bench_pairs.compare(METRICS[0], parent, change)
    assert got["within_bound"] is within
    assert got["unresolved"] is unresolved


@pytest.mark.parametrize("gain, wins, met", [
    (5.0, 10, True),     # every pair won, by more than the parent's IQR
    (0.5, 10, False),    # every pair won, but by less than the parent's IQR
    (5.0, 8, False),     # 8 of 10 pairs is too few
])
def test_claim_needs_nine_in_ten_pairs_and_more_than_the_iqr(gain, wins, met):
    parent = [(10.0 + i, 20.0) for i in range(10)]
    change = [(p - gain if i < wins else p + 1.0, r) for i, (p, r) in enumerate(parent)]
    workloads = bench_pairs.aggregate(_runs(parent, change), METRICS)
    got = bench_pairs.claim(workloads, "w", "train_step_ms")
    assert got["change_wins"] == f"{wins}/10"
    assert got["parent_iqr"] == np.percentile(range(10), 75) - np.percentile(range(10), 25)
    assert got["median_difference"] == got["median_parent"] - got["median_change"]
    assert got["met"] is met


def test_main_alternates_which_tree_runs_first(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        tree.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 3, "end_to_end": METRICS}))
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed))
        cpu = "cpu B" if (tree.name, seed) == ("change", 6) else "cpu A"
        return bench_pairs.parse_run(_stdout(tree.name, 10.0 - (tree == change), 20.0, cpu=cpu))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workloads",
                             "a", "b", "--seeds", "5-7", "--claim", "b:train_step_ms",
                             "--out", str(out)]) == 0
    order = [("parent", "change"), ("change", "parent"), ("parent", "change")]
    assert calls == [(side, w, 5 + i) for w in ("a", "b")
                     for i, pair in enumerate(order) for side in pair]
    doc = json.loads(out.read_text())
    assert (doc["parent"], doc["change"], doc["seeds"]) == ("parent", "change", [5, 6, 7])
    assert doc["command"].endswith("--seconds 3 --trace 0")
    assert [env["cpu_model"] for env in doc["manifest"]] == ["cpu A", "cpu B"]
    assert set(doc["workloads"]) == {"a", "b"}
    assert doc["claim"]["change_wins"] == "3/3" and doc["claim"]["met"] is True


def test_main_records_each_runs_minor_faults(tmp_path, monkeypatch):
    # Each run is a real child process that touches 4 MiB (1024 pages) more
    # in the change tree than in the parent's.
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        tree.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 3, "end_to_end": METRICS}))

    def touching_run(tree, workload, seed, seconds):
        mib = 8 if tree == change else 4
        subprocess.run([sys.executable, "-c", f"b = bytearray({mib} << 20)"], check=True)
        return bench_pairs.parse_run(_stdout(tree.name, 10.0, 20.0))

    monkeypatch.setattr(bench_pairs, "run_once", touching_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workloads",
                             "a", "--seeds", "1-3", "--out", str(out)]) == 0
    faults = json.loads(out.read_text())["workloads"]["a"]["minor_faults"]
    assert set(faults) == {"parent", "change"}
    for side in ("parent", "change"):
        assert len(faults[side]["runs"]) == 3
        assert faults[side]["median"] == np.median(faults[side]["runs"])
    assert min(faults["parent"]["runs"]) >= 1024
    assert min(c - p for c, p in zip(faults["change"]["runs"], faults["parent"]["runs"])) >= 900


def test_main_divides_each_runs_faults_by_its_operations(tmp_path, monkeypatch):
    # The change's runs fault the same 8 MiB as the parent's but attempt
    # twice the operations, so they fault half as much per operation.
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        tree.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 3, "end_to_end": METRICS}))

    def touching_run(tree, workload, seed, seconds):
        subprocess.run([sys.executable, "-c", "b = bytearray(8 << 20)"], check=True)
        return bench_pairs.parse_run(_stdout(tree.name, 10.0, 20.0,
                                             attempted=400 if tree == change else 200))

    monkeypatch.setattr(bench_pairs, "run_once", touching_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workloads",
                             "a", "--seeds", "1-3", "--out", str(out)]) == 0
    workload = json.loads(out.read_text())["workloads"]["a"]
    for side, attempted in (("parent", 200), ("change", 400)):
        per_op = workload["minor_faults_per_op"][side]
        assert per_op["runs"] == [n / attempted for n in workload["minor_faults"][side]["runs"]]
        q1, median, q3 = np.percentile(per_op["runs"], [25, 50, 75])
        assert (per_op["median"], per_op["q1"], per_op["q3"]) == (median, q1, q3)
    per_op = {side: workload["minor_faults_per_op"][side]["median"] for side in ("parent", "change")}
    assert per_op["parent"] > 10
    assert 0.4 < per_op["change"] / per_op["parent"] < 0.6
