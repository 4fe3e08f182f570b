"""lcv benchmark entry point.

    python3 perfbench/run.py --workload desk_train --seed 0 --seconds 55 --trace 0

Run from the root of a checkout; ``lcv`` is imported from ``src/``.  With
``--trace 0`` the last stdout line carries every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` every per-layer metric.  The lines
before it hold the run manifest and details.  Scratch files go under
``.bench_work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

# Pin BLAS to one thread; numpy is first imported by _import_workloads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _import_workloads():
    if not (ROOT / "src" / "lcv" / "__init__.py").is_file():
        raise ImportError(f"no lcv package under {ROOT / 'src'}")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bench_workloads
    return bench_workloads


def _positive(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError("must be a positive number")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def main(argv=None) -> int:
    try:
        bw = _import_workloads()
    except ImportError as err:
        print(f"perfbench: cannot import the program: {err}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bw.WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=_positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = bw.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{w.name}-{os.getpid()}"
    try:
        run = bw.run_traced if args.trace else bw.run_workload
        out = run(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    manifest = {**bw.environment_manifest(ROOT), **bw.workload_manifest(w, args.seed, args.seconds)}
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({"details": out["details"]}))
    ledger = out["ledger"]
    finite = all(math.isfinite(value) for value, _ in out["metrics"].values())
    metrics = {name: {"value": value if math.isfinite(value) else None, "unit": unit}
               for name, (value, unit) in out["metrics"].items()}
    correct = ledger.failed == 0 and finite
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
