"""Run the CLI on two trees and compare what each writes, byte for byte.

    python3 tools/byte_identity.py ../parent .

For each tree and each optimizer mode (``cayley``, ``stiefel``) it runs
``lcv generate``, ``lcv train``, ``lcv eval`` (on the trained checkpoint)
and ``lcv sweep`` on one small fixed config, whose perturbation (gamma,
noise and a disc) ``lcv eval`` applies.  ``lcv eval`` runs twice: with the
default perturbation seed (``metrics.json``) and with ``--seed``
``EVAL_SEED`` (``metrics_seed.json``), the path of the benchmark's eval
calls.  Once per tree it runs ``lcv gradcheck`` and writes its stdout to
``gradcheck.txt``.  Once per tree and per eval seed it also writes
``perturbed_f2.sha256`` and ``perturbed_f2_seed.sha256``, the SHA-256 of
the bytes of the second frame that ``lcv eval`` scores, as its own
``cmd_eval`` reads and perturbs it, which a change to the perturbation
that moves no decoded match still shows.  Each tree's own ``src`` comes first on ``PYTHONPATH``,
and BLAS runs on one thread unless the environment sets otherwise.  Every file written must match the
other tree's.  The train log is compared with ``wall_ms`` dropped from each
of its JSON lines, since wall times differ between any two runs.  Prints
each differing file, and under a differing ``.json`` file the dotted keys
whose values differ or that only one side has (for example
``optimizer.grad_tolerance: only in parent``), and exits 1 when there is one,
or when a command fails; else exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MODES = ("cayley", "stiefel")
# 48x64 frames under a 3x3 window are two row chunks of the engine (38 and
# 10 rows), so training and scoring both cross a chunk boundary.
CONFIG = {
    "synthetic": {"height": 48, "width": 64, "signal_channels": 3, "noise_channels": 3,
                  "max_displacement": 1, "seed": 7},
    # ``lcv eval`` perturbs the second frame; the sweep sets its own points.
    "perturb": {"gamma": 0.7, "noise_std": 0.05, "patch_radius": 2},
    "optimizer": {"learning_rate": 0.01, "max_steps": 40},
    "window": [3, 3],
    "instances": 5,
    "sweep": {"seeds": [7, 8], "gamma_grid": [0.5, 1.0], "noise_grid": [0.05], "patch_grid": [2]},
}
# The explicit ``lcv eval --seed``.
EVAL_SEED = "11"
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# Runs ``lcv eval`` in-process on the checkpoint ``argv[1]`` and the pair in
# ``argv[2]``, with any further arguments appended, and prints the SHA-256 of the second frame it scores: the
# frame as the tree's own ``cmd_eval`` reads and perturbs it.
PERTURBED_DIGEST = """
import contextlib, hashlib, io, os, sys
from lcv import cli
digests = []
def score_pair(f1, f2, *args, _score_pair=cli.score_pair, **kwargs):
    digests.append(hashlib.sha256(f2.data.tobytes()).hexdigest())
    return _score_pair(f1, f2, *args, **kwargs)
cli.score_pair = score_pair
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["eval", "--checkpoint", sys.argv[1], "--data", sys.argv[2], "--out", os.devnull, *sys.argv[3:]])
if code:
    sys.exit(code)
print(digests[0])
"""


def python(tree: Path, *args, label) -> str:
    """Stdout of ``python *args`` with ``tree``'s own ``src`` first on
    ``PYTHONPATH``; exits naming ``label`` when the command fails."""
    env = {**{name: "1" for name in THREADS}, **os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {label} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def write_perturbed_digest(tree: Path, checkpoint: Path, data: Path, out: Path, *eval_args) -> None:
    """Write to ``out`` the digest of ``data``'s second frame as ``tree``'s
    ``lcv eval`` of ``checkpoint``, given ``eval_args``, perturbs it."""
    out.write_text(python(tree, "-c", PERTURBED_DIGEST, checkpoint, data, *eval_args,
                          label="perturbed-frame digest"))


def run_recipe(tree: Path, out: Path) -> None:
    """Write every mode's outputs from ``tree`` under ``out/<mode>``,
    ``lcv gradcheck``'s report to ``out/gradcheck.txt`` and the perturbed
    frame's digests to ``out/perturbed_f2.sha256`` (default seed) and
    ``out/perturbed_f2_seed.sha256`` (``--seed EVAL_SEED``)."""

    def lcv(*args, label) -> str:
        return python(tree, "-m", "lcv.cli", *args, label=f"lcv {label}")

    for mode in MODES:
        config = out / f"{mode}.json"
        config.write_text(json.dumps({**CONFIG, "optimizer": {**CONFIG["optimizer"], "mode": mode}}))
        d = out / mode
        for args in (["generate", "--config", config, "--out", d / "data"],
                     ["train", "--config", config, "--out", d / "ck"],
                     ["eval", "--checkpoint", d / "ck.lcvk", "--data", d / "data",
                      "--out", d / "metrics.json"],
                     ["eval", "--checkpoint", d / "ck.lcvk", "--data", d / "data",
                      "--out", d / "metrics_seed.json", "--seed", EVAL_SEED],
                     ["sweep", "--config", config, "--out", d / "sweep"]):
            lcv(*args, label=f"{args[0]} ({mode})")
    (out / "gradcheck.txt").write_text(lcv("gradcheck", label="gradcheck"))
    for name, eval_args in (("perturbed_f2", ()), ("perturbed_f2_seed", ("--seed", EVAL_SEED))):
        write_perturbed_digest(tree, out / MODES[0] / "ck.lcvk", out / MODES[0] / "data",
                               out / f"{name}.sha256", *eval_args)


def comparable(path: Path) -> bytes:
    """The bytes of ``path`` as compared: a train log's lines lose ``wall_ms``."""
    data = path.read_bytes()
    if path.suffix != ".log":
        return data
    records = [json.loads(line) for line in data.splitlines()]
    for record in records:
        record.pop("wall_ms", None)
    return "\n".join(map(json.dumps, records)).encode()


def differences(a: Path, b: Path) -> list[str]:
    """Paths, relative to ``a`` and ``b``, of the files that differ or that
    only one side has."""
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    return sorted(str(p) for p in files[0] | files[1]
                  if p not in files[0] or p not in files[1] or comparable(a / p) != comparable(b / p))


def key_differences(parent, change, crumb="") -> list[str]:
    """Dotted keys, with ``crumb`` before each, at which the JSON values
    ``parent`` and ``change`` differ, each with how: ``only in parent``,
    ``only in change`` or ``differs``.  Objects are compared key by key;
    any other value as a whole."""
    if not (isinstance(parent, dict) and isinstance(change, dict)):
        return [] if json.dumps(parent) == json.dumps(change) else [f"{crumb[:-1] or '(top level)'}: differs"]
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in change:
            lines.append(f"{crumb}{key}: only in parent")
        elif key not in parent:
            lines.append(f"{crumb}{key}: only in change")
        else:
            lines += key_differences(parent[key], change[key], f"{crumb}{key}.")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        outs = [Path(work) / side for side in ("parent", "change")]
        for tree, out in zip((args.parent, args.change), outs):
            out.mkdir()
            run_recipe(tree.resolve(), out)
        compared = sum(1 for p in outs[0].rglob("*") if p.is_file())
        differ = differences(*outs)
        for path in differ:
            print(f"differs: {path}")
            if path.endswith(".json") and all((out / path).is_file() for out in outs):
                for line in key_differences(*(json.loads((out / path).read_text()) for out in outs)):
                    print(f"  {line}")
    print(f"byte_identity: {compared} files compared in modes {', '.join(MODES)}, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
