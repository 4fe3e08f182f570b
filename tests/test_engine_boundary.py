"""The matching engine's module boundary, and the benchmark tracer's hold on it.

The engine (costs, softmax loss, gradient back to ``W``, decode) lives in
:mod:`lcv.costvolume`, and :mod:`lcv.harness` reaches it through a few
names.  ``perfbench/bench_trace.py`` finds each traced function by the
module it names and wraps every binding of it, so a lost binding turns a
span into zeros while the benchmark still reports a correct run.
"""

import ast
import json
import sys
from pathlib import Path

import lcv
from lcv import cli

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

import bench_trace  # noqa: E402


def test_harness_imports_only_the_engine_entry_points_from_costvolume():
    tree = ast.parse((ROOT / "src" / "lcv" / "harness.py").read_text())
    private = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               and node.module == "costvolume"
               for alias in node.names if alias.name.startswith("_")}
    assert private == {"_adopt", "_grad_w_from_costs", "_MatchingProblem", "_Workspace"}


def test_the_tracer_finds_and_counts_the_engine_spans(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synthetic": {"height": 8, "width": 8, "signal_channels": 2, "noise_channels": 2,
                      "max_displacement": 1},
        "perturb": {"noise_std": 0.1},
        "window": [3, 3],
    }))
    pair, checkpoint = tmp_path / "pair", tmp_path / "identity.lcvk"
    assert cli.main(["generate", "--config", str(config), "--seed", "1", "--out", str(pair)]) == 0
    lcv.save_kernel(checkpoint, lcv.identity_kernel(4))

    with bench_trace.Tracer() as tracer:
        lcv.run_experiment(lcv.SyntheticSpec(8, 8, 2, 2, 1, seed=0), lcv.PerturbSpec(noise_std=0.1),
                           lcv.OptimizerConfig(learning_rate=0.01, max_steps=2), (3, 3),
                           instances=2)
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(pair),
                         "--out", str(tmp_path / "eval.json"), "--seed", "2"]) == 0

    assert tracer.absent == []
    summary = tracer.summary()
    for name in ("harness.grad_w", "harness.train_kernel", "kernel.kernel_grad",
                 "costvolume.read_tensor"):
        assert summary[name]["calls"] > 0, name
