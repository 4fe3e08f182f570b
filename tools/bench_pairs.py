"""Run the benchmark on two trees in alternating pairs and write a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workloads desk_train paper_eval --seeds 201-210 \
        --claim paper_eval:train_step_ms --out BENCH_9.json

Each tree is a checkout holding ``perfbench/run.py`` and ``BENCHMARK.json``.
Pair ``i`` of a workload runs ``--trace 0`` on seed ``first + i`` in both
trees: the parent first in even pairs, the change first in odd ones, so a
drift in the host's speed does not favour either side.  The run length
and the end-to-end metrics, with their units, directions and bounds,
come from the change tree's ``BENCHMARK.json``.  Per metric and side the file holds every run, the
median and the ``numpy.percentile`` quartiles (linear interpolation);
per pair, whether the change won, tied or lost; and the no-regression
verdict, ``within_bound`` and ``unresolved`` (see ``compare``).  Per workload and side it
also holds the minor page faults of each run's process (``getrusage`` of
the waited-for children, taken around each run), with their median and
quartiles, and the same per operation: each run's faults over the
operations its result line says it attempted, since runs of equal length
complete different numbers of calls.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# Manifest fields that describe the host, not the run.
ENVIRONMENT = ("blas", "blas_threads", "cpu_model", "l2_cache", "l3_cache",
               "nproc", "numpy", "python", "scipy")
# A claimed gain must win at least this share of the pairs.
CLAIM_WIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """``"201-210"`` or ``"7"`` as the list of seeds it names."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"not a seed range: {text!r}")
    return seeds


def parse_run(stdout: str) -> dict:
    """The manifest and the result of one ``perfbench/run.py`` output."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    manifest = next(line["manifest"] for line in lines if "manifest" in line)
    return {"manifest": manifest, "result": lines[-1]}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return parse_run(done.stdout)


def child_faults() -> int:
    """Minor page faults of every child process waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1), "runs": list(values)}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric over paired runs; ``spec`` is its ``BENCHMARK.json`` entry.

    ``change_worse_by`` is the change's median relative to the parent's,
    signed so that positive means worse; ``within_bound`` is whether it is
    at most the bound.  ``unresolved`` is set when the parent's own spread
    (its IQR over its median) exceeds the bound, unless every change run
    beats every parent run: no verdict can then be read from the medians.
    """
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p, c = summary(parent), summary(change)
    worse_by = sign * (c["median"] - p["median"]) / p["median"]
    every_run_better = max(sign * x for x in change) < min(sign * x for x in parent)
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": p, "change": c,
        "change_wins": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "ties": sum(a == b for a, b in zip(parent, change)),
        "change_worse_by": worse_by,
        "within_bound": worse_by <= spec["bound"],
        "unresolved": p["iqr"] / p["median"] > spec["bound"] and not every_run_better,
    }


def aggregate(runs: dict, metrics: list[dict]) -> dict:
    """Per workload, the correctness of every run and each metric compared.

    ``runs[workload][side]`` lists the parsed runs of one side in pair order.
    """
    out = {}
    for workload, sides in runs.items():
        results = {side: [run["result"] for run in sides[side]] for side in SIDES}
        out[workload] = {
            "correct": {side: [r["correct"] for r in results[side]] for side in SIDES},
            "failed_over_attempted": {side: [f"{r['failed']}/{r['attempted']}" for r in results[side]]
                                      for side in SIDES},
            "metrics": {spec["name"]: compare(spec, *([r["metrics"][spec["name"]]["value"]
                                                      for r in results[side]] for side in SIDES))
                        for spec in metrics},
        }
    return out


def claim(workloads: dict, workload: str, metric: str) -> dict:
    """Whether the change gains on ``metric``: it wins at least
    ``CLAIM_WIN_SHARE`` of the pairs, and its median beats the parent's by
    more than the parent's interquartile range."""
    m = workloads[workload]["metrics"][metric]
    pairs = len(m["parent"]["runs"])
    sign = 1.0 if m["better"] == "lower" else -1.0
    difference = sign * (m["parent"]["median"] - m["change"]["median"])
    return {
        "metric": metric, "workload": workload,
        "change_wins": f"{m['change_wins']}/{pairs}",
        "median_parent": m["parent"]["median"], "median_change": m["change"]["median"],
        "median_difference": difference, "parent_iqr": m["parent"]["iqr"],
        "met": m["change_wins"] >= CLAIM_WIN_SHARE * pairs and difference > m["parent"]["iqr"],
    }


def environments(runs: dict) -> list[dict]:
    """The distinct host descriptions seen over every run."""
    seen = []
    for sides in runs.values():
        for side in SIDES:
            for run in sides[side]:
                env = {key: run["manifest"].get(key) for key in ENVIRONMENT}
                if env not in seen:
                    seen.append(env)
    return seen


def labels(runs: dict) -> dict:
    """Per side, the git commits its runs reported."""
    return {side: sorted({run["manifest"]["git_commit"] for sides in runs.values()
                          for run in sides[side]}) for side in SIDES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="tree of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 201-210")
    parser.add_argument("--claim", default=None, help="workload:metric of a claimed gain")
    parser.add_argument("--parent-label", default=None, help="default: the runs' git commit")
    parser.add_argument("--change-label", default=None, help="default: the runs' git commit")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    runs = {w: {side: [] for side in SIDES} for w in args.workloads}
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                before = child_faults()
                run = run_once(trees[side], workload, seed, seconds)
                run["minor_faults"] = child_faults() - before
                run["minor_faults_per_op"] = run["minor_faults"] / run["result"]["attempted"]
                runs[workload][side].append(run)
                print(f"{workload} pair {i} seed {seed} {side}: {json.dumps(run['result'])}, "
                      f"{run['minor_faults']} minor faults", file=sys.stderr)

    workloads = aggregate(runs, spec["end_to_end"])
    for workload, sides in runs.items():
        for key in ("minor_faults", "minor_faults_per_op"):
            workloads[workload][key] = {side: summary([run[key] for run in sides[side]])
                                        for side in SIDES}
    seen = labels(runs)
    doc = {
        "what": f"End-to-end metrics of the parent commit and of this change, "
                f"{len(args.seeds)} alternating pairs per workload",
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "parent": args.parent_label or ", ".join(seen["parent"]),
        "change": args.change_label or ", ".join(seen["change"]),
        "seeds": args.seeds,
        "order": f"pair i runs on seed {args.seeds[0]} + i; the parent runs first in even "
                 f"pairs, the change first in odd pairs",
        "quartiles": f"numpy.percentile, linear interpolation, over the {len(args.seeds)} "
                     f"runs of each side",
        "manifest": environments(runs),
        "workloads": workloads,
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        doc["claim"] = claim(workloads, workload, metric)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
