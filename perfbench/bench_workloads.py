"""Workloads of the lcv benchmark: set-up, timed phases and correctness checks.

Every workload runs the same two closed-loop phases at its own geometry,
one operation at a time on one thread:

* train: ``lcv.run_experiment`` calls, each on inputs drawn from a fresh
  derived seed;
* eval: in-process ``lcv eval`` calls (``lcv.cli.main``) on the pairs that
  set-up wrote, cycling pairs and perturbation seeds.

What differs is the geometry and how the run's seconds are shared between
the phases, which decides the layers that dominate (see README.md).
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import lcv
from lcv import cli

LEARNING_RATE = 0.01
EVAL_NOISE_STD = 0.1
# Noise channels of the reference checkpoint get t = -3, i.e. lam ~ 0.2.
REFERENCE_NOISE_T = -3.0
# p90 needs at least ten samples beyond it.
EVAL_MIN_CALLS = 100
PAIRS = 4  # pairs written by set-up for the eval phase
# Set-up is sampled at most this many times, spread over the run.
SETUP_SAMPLES = 20


@dataclass(frozen=True)
class Geometry:
    """Square frames of ``signal + noise`` channels and a square window."""

    size: int
    signal: int
    noise: int
    max_displacement: int
    window: int

    @property
    def channels(self) -> int:
        return self.signal + self.noise

    def spec(self, seed: int) -> lcv.SyntheticSpec:
        return lcv.SyntheticSpec(
            height=self.size, width=self.size, signal_channels=self.signal,
            noise_channels=self.noise, max_displacement=self.max_displacement, seed=seed,
        )

    def config(self) -> dict:
        """The ``lcv`` CLI config for ``generate`` and ``eval``."""
        return {
            "synthetic": {
                "height": self.size, "width": self.size, "signal_channels": self.signal,
                "noise_channels": self.noise, "max_displacement": self.max_displacement,
            },
            "perturb": {"noise_std": EVAL_NOISE_STD},
            "window": [self.window, self.window],
        }


@dataclass(frozen=True)
class Workload:
    name: str
    geometry: Geometry
    instances: int          # run_experiment instances (80/20 train/eval split)
    steps: int              # optimizer steps per run_experiment
    train_share: float      # share of the call time given to the train phase
    # Quality comes from the first ``scored_train_calls`` run_experiment
    # calls; 0 means from the first EVAL_MIN_CALLS eval calls instead.
    scored_train_calls: int


WORKLOADS = {
    w.name: w for w in (
        # Desk config of the README: fixed frames, small working set.
        Workload("desk_train", Geometry(32, 4, 12, 2, 5), instances=10, steps=500,
                 train_share=0.5, scored_train_calls=1),
        # c = 128 on 8x8 frames: the O(c^3) kernel algebra dominates.  One
        # held-out 8x8 instance per call is noisy, so five seeds are scored.
        Workload("wide_kernel", Geometry(8, 8, 120, 1, 3), instances=5, steps=300,
                 train_share=0.6, scored_train_calls=5),
        # Paper-scale forward matching on fresh inputs; the short train
        # phase times a paper-scale step.
        Workload("paper_eval", Geometry(64, 8, 56, 4, 9), instances=2, steps=5,
                 train_share=0.15, scored_train_calls=0),
    )
}


def working_set(w: Workload) -> dict[str, int]:
    """Computed bytes (float64) of the arrays each phase keeps live."""
    g = w.geometry
    c, s, k = g.channels, g.size, g.window
    frame = 8 * c * s * s
    padded = 8 * c * (s + k - 1) ** 2
    volume = 8 * k * k * s * s
    n_train = w.instances - max(1, w.instances // 5)
    return {
        "frame_bytes": frame,
        "volume_bytes": volume,
        # Both frames of every training instance stay fixed across steps,
        # plus one instance's padded W f2, costs and their gradient.
        "train_bytes": 2 * n_train * frame + padded + 2 * volume,
        # f1, f2, perturbed f2, padded W f2 and one volume.
        "eval_bytes": 3 * frame + padded + volume,
    }


def derived_seeds(seed: int) -> tuple[int, int, int]:
    """Base seeds of train calls, set-up pairs and eval perturbations."""
    a, b, c = np.random.SeedSequence(seed).generate_state(3, dtype=np.uint32)
    return int(a) >> 1, int(b) >> 1, int(c) >> 1


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


class Ledger:
    """Counts attempted and failed operations; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def call(self, what: str, fn, *args):
        """Run ``fn``; an exception or a nonzero exit code counts as failed."""
        try:
            out = fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.record(False, what)
            return None
        self.record(not (isinstance(out, int) and out != 0), what)
        return out


@dataclass
class Prepared:
    root: Path
    pair_dirs: list[Path]
    checkpoint: Path


def setup(w: Workload, seed: int, root: Path, ledger: Ledger) -> Prepared:
    """Write the eval pairs with ``lcv generate`` and the reference checkpoint."""
    g = w.geometry
    root.mkdir(parents=True)
    config = root / "config.json"
    config.write_text(json.dumps(g.config()))
    _, pair_base, _ = derived_seeds(seed)
    pair_dirs = []
    with redirect_stdout(_Discard()):
        for k in range(PAIRS):
            out = root / f"pair{k}"
            ledger.call("generate", cli.main, ["generate", "--config", str(config),
                                               "--seed", str(pair_base + k), "--out", str(out)])
            pair_dirs.append(out)
    s = lcv.SkewParams(entries=np.zeros(g.channels * (g.channels - 1) // 2), dim=g.channels)
    t = lcv.DiagParams(t=np.r_[np.zeros(g.signal), np.full(g.noise, REFERENCE_NOISE_T)])
    checkpoint = root / "reference.lcvk"
    lcv.save_kernel(checkpoint, lcv.assemble_kernel(s, t))
    return Prepared(root, pair_dirs, checkpoint)


def train_op(w: Workload, seed: int):
    """``op(j)`` runs the ``j``-th train call of a run."""
    train_base, _, _ = derived_seeds(seed)
    g = w.geometry

    def op(j: int):
        return lcv.run_experiment(
            g.spec(train_base + j), lcv.PerturbSpec(noise_std=EVAL_NOISE_STD),
            lcv.OptimizerConfig(learning_rate=LEARNING_RATE, max_steps=w.steps),
            (g.window, g.window), w.instances,
        )
    return op


def eval_op(prep: Prepared, seed: int):
    _, _, eval_base = derived_seeds(seed)

    def op(j: int):
        pair = prep.pair_dirs[j % len(prep.pair_dirs)]
        return cli.main(["eval", "--checkpoint", str(prep.checkpoint), "--data", str(pair),
                         "--out", str(prep.root / f"eval{j}.json"),
                         "--seed", str(eval_base + j)])
    return op


def timed_calls(op, what: str, count: int, ledger: Ledger):
    """Call ``op(0)`` .. ``op(count - 1)`` back to back; returns per-call seconds."""
    times = []
    with redirect_stdout(_Discard()):
        for j in range(count):
            t0 = perf_counter()
            ledger.call(what, op, j)
            times.append(perf_counter() - t0)
    return times


def interleaved(train, evaluate, seconds: float, train_share: float, min_train: int,
                ledger: Ledger, after_call=lambda: None):
    """Closed loop over both phases for ``seconds``.

    The next call goes to the phase that is behind its share of the time
    spent so far, so both phases sample the whole run rather than one end
    of it: the host's speed drifts over tens of seconds.  A call is not
    started when that phase's previous call would carry the run past
    ``seconds``, unless a phase still lacks its minimum count.
    ``after_call`` runs, untimed, after every call.  Returns
    per-call seconds and results (None for a failed call) per phase.
    """
    ops = {"train": ("run_experiment", train), "eval": ("lcv eval", evaluate)}
    minimum = {"train": min_train, "eval": EVAL_MIN_CALLS}
    times = {"train": [], "eval": []}
    results = {"train": [], "eval": []}
    spent = {"train": 0.0, "eval": 0.0}
    start = perf_counter()
    with redirect_stdout(_Discard()):
        while True:
            total = spent["train"] + spent["eval"]
            phase = "train" if spent["train"] <= train_share * total else "eval"
            if times[phase] and perf_counter() - start + times[phase][-1] > seconds:
                short = [p for p in ops if len(times[p]) < minimum[p]]
                if not short:
                    break
                phase = short[0]
            what, op = ops[phase]
            t0 = perf_counter()
            out = ledger.call(what, op, len(times[phase]))
            elapsed = perf_counter() - t0
            times[phase].append(elapsed)
            results[phase].append(out)
            spent[phase] += elapsed
            after_call()
    return times, results


def read_eval_scores(prep: Prepared, calls: int, ledger: Ledger) -> list[dict | None]:
    """Parse every eval call's JSON; each parse is one checked operation."""
    keys = ("aepe", "aepe_identity", "fl_all", "fl_identity")
    scores = []
    for j in range(calls):
        try:
            doc = json.loads((prep.root / f"eval{j}.json").read_text())
            ok = all(isinstance(doc.get(k), float) and math.isfinite(doc[k]) for k in keys)
        except (OSError, ValueError):
            doc, ok = None, False
        ledger.record(ok, f"eval{j}.json is not a complete score record")
        scores.append(doc if ok else None)
    return scores


def check_identity_decode(w: Workload, prep: Prepared, seed: int, score: dict | None,
                          ledger: Ledger) -> None:
    """Eval call 0 at W = I must equal the vanilla cost volume's decode exactly."""
    g = w.geometry
    _, _, eval_base = derived_seeds(seed)
    pair = prep.pair_dirs[0]
    f1 = lcv.FeatureMap(lcv.read_tensor(pair / "f1.lcvt"))
    f2 = lcv.FeatureMap(lcv.read_tensor(pair / "f2.lcvt"))
    gt = lcv.FlowField(lcv.read_tensor(pair / "flow.lcvt"))
    f2p = lcv.perturb(f2, lcv.PerturbSpec(noise_std=EVAL_NOISE_STD), seed=eval_base,
                      signal_channels=g.signal)
    k = g.window
    ident = lcv.identity_kernel(g.channels)
    flow_w = lcv.decode_flow_argmax(lcv.cost_volume_bilinear(f1, f2p, ident.W, k, k))
    flow_v = lcv.decode_flow_argmax(lcv.vanilla_cost_volume(f1, f2p, k, k))
    ledger.record(np.array_equal(flow_w.data, flow_v.data),
                  "identity-kernel decode differs from the vanilla decode")
    ledger.record(score is not None and score["aepe_identity"] == lcv.epe(flow_v, gt),
                  "lcv eval aepe_identity differs from the vanilla decode's AEPE")


def quality(w: Workload, train_results, eval_scores) -> dict[str, float] | None:
    """Mean held-out scores of the workload's learned kernel and of W = I."""
    if w.scored_train_calls:
        rows = train_results[: w.scored_train_calls]
        if len(rows) < w.scored_train_calls or any(r is None for r in rows):
            return None
        cols = {"aepe_learned": [r.aepe_learned for r in rows],
                "aepe_identity": [r.aepe_identity for r in rows],
                "fl_learned": [r.fl_learned for r in rows],
                "fl_identity": [r.fl_identity for r in rows]}
    else:
        rows = eval_scores[:EVAL_MIN_CALLS]
        if len(rows) < EVAL_MIN_CALLS or any(r is None for r in rows):
            return None
        cols = {"aepe_learned": [r["aepe"] for r in rows],
                "aepe_identity": [r["aepe_identity"] for r in rows],
                "fl_learned": [r["fl_all"] for r in rows],
                "fl_identity": [r["fl_identity"] for r in rows]}
    return {k: math.fsum(v) / len(v) for k, v in cols.items()}


def input_digest(w: Workload, seed: int, prep: Prepared) -> str:
    """SHA-256 over the seeded inputs: the eval pairs and the first train call's data."""
    h = hashlib.sha256()
    for pair in prep.pair_dirs:
        for name in ("f1.lcvt", "f2.lcvt", "flow.lcvt"):
            h.update((pair / name).read_bytes())
    train_base, _, _ = derived_seeds(seed)
    f1, f2, flow = lcv.generate(w.geometry.spec(train_base))
    for a in (f1.data, f2.data, flow.data):
        h.update(a.tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(w: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """One untraced run: repeated set-up, both timed phases, then the checks."""
    ledger = Ledger()
    setups = []

    def timed_setup() -> Prepared:
        gc.collect()  # garbage of earlier calls is not set-up's cost
        t0 = perf_counter()
        prep = setup(w, seed, workdir / f"setup{len(setups)}", ledger)
        setups.append(perf_counter() - t0)
        return prep

    prep = timed_setup()
    last_setup = perf_counter()

    def resample_setup():
        # The host's speed drifts over tens of seconds, so set-up is
        # sampled across the run, not only at its start.
        nonlocal last_setup
        if len(setups) < SETUP_SAMPLES and perf_counter() - last_setup >= seconds / SETUP_SAMPLES:
            shutil.rmtree(timed_setup().root)
            last_setup = perf_counter()

    times, results = interleaved(train_op(w, seed), eval_op(prep, seed), seconds,
                                 w.train_share, max(1, w.scored_train_calls), ledger,
                                 after_call=resample_setup)
    train_times, train_results, eval_times = times["train"], results["train"], times["eval"]

    eval_scores = read_eval_scores(prep, len(eval_times), ledger)
    check_identity_decode(w, prep, seed, eval_scores[0], ledger)
    scores = quality(w, train_results, eval_scores)
    ledger.record(scores is not None and scores["aepe_learned"] < scores["aepe_identity"],
                  "learned kernel does not beat W = I on held-out AEPE")

    step_ms = [1000.0 * t / r.steps for t, r in zip(train_times, train_results)
               if r is not None and r.steps > 0]
    scores = scores or {}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "train_s": (statistics.median(train_times), "s"),
        "train_step_ms": (statistics.median(step_ms) if step_ms else math.nan, "ms"),
        "eval_pairs_per_s": (len(eval_times) / math.fsum(eval_times), "1/s"),
        "eval_ms_p50": (1000.0 * statistics.median(eval_times), "ms"),
        "eval_ms_p90": (1000.0 * statistics.quantiles(eval_times, n=10)[8], "ms"),
        "aepe_learned": (scores.get("aepe_learned", math.nan), "px"),
        "aepe_identity": (scores.get("aepe_identity", math.nan), "px"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    details = {
        "fl_learned_pct": scores.get("fl_learned"),
        "fl_identity_pct": scores.get("fl_identity"),
        "ops_failed_frac": ledger.failed / ledger.attempted,
        "train_calls": len(train_times),
        "eval_calls": len(eval_times),
        "setup_samples": len(setups),
        "input_sha256": input_digest(w, seed, prep),
        "problems": ledger.problems,
    }
    return {"ledger": ledger, "metrics": metrics, "details": details}


def run_traced(w: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Per-layer run: rounds of set-up, one train call and EVAL_MIN_CALLS evals.

    Each round runs the identical operations once untraced and once traced,
    alternating which goes first, so the two walls give the tracing
    overhead.  Calls and self time are reported per round.
    """
    from bench_trace import BYTES_SPANS, WORK_SPANS, Tracer

    ledger = Ledger()
    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}

    def one_round(tag: str) -> float:
        root = workdir / tag
        start = perf_counter()
        prep = setup(w, seed, root, ledger)
        timed_calls(train_op(w, seed), "run_experiment", 1, ledger)
        times = timed_calls(eval_op(prep, seed), "lcv eval", EVAL_MIN_CALLS, ledger)
        wall = perf_counter() - start
        read_eval_scores(prep, len(times), ledger)
        shutil.rmtree(root)
        return wall

    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start + round_wall <= seconds:
        round_wall = 0.0
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    wall = one_round(f"round{rounds}-traced")
            else:
                wall = one_round(f"round{rounds}")
            walls[traced] += wall
            round_wall += wall
        rounds += 1

    own = tracer.self_times()
    ledger.record(all(s >= 0.0 for s in own), "negative self time")
    self_sum_frac = math.fsum(own) / walls[True]
    # Spans cover everything but the benchmark's own glue (paths, config text).
    ledger.record(0.95 <= self_sum_frac <= 1.0, f"self times cover {self_sum_frac:.4f} of the traced wall")

    metrics = {}
    for name, row in tracer.summary().items():
        metrics[f"{name}.calls"] = (row["calls"] / rounds, "count")
        metrics[f"{name}.self_ms"] = (1000.0 * row["self_s"] / rounds, "ms")
        if name in WORK_SPANS:
            gflop = tracer.flop[name] / 1e9
            metrics[f"{name}.gflop"] = (gflop / rounds, "GFLOP")
            metrics[f"{name}.gflops"] = (gflop / row["self_s"] if row["self_s"] > 0 else 0.0,
                                         "GFLOP/s")
        if name in BYTES_SPANS:
            metrics[f"{name}.mb"] = (tracer.nbytes[name] / 1e6 / rounds, "MB")
    metrics["trace.overhead_frac"] = (walls[True] / walls[False] - 1.0, "ratio")
    metrics["trace.self_sum_frac"] = (self_sum_frac, "ratio")
    details = {
        "rounds": rounds,
        "round_ops": {"setup": 1, "run_experiment": 1, "lcv eval": EVAL_MIN_CALLS},
        "absent_spans": tracer.absent,
        "wait_time": "none: one process, no queue, closed loop",
        "work_counts": "computed from array shapes; bytes assume no cache reuse",
        "problems": ledger.problems,
    }
    return {"ledger": ledger, "metrics": metrics, "details": details, "tracer": tracer}


def environment_manifest(root: Path) -> dict:
    """Versions, BLAS, threads and CPU caches: the context of every result."""
    import platform
    import subprocess

    import scipy

    def command(*argv, **kw):
        try:
            done = subprocess.run(argv, capture_output=True, text=True, timeout=30, **kw)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout if done.returncode == 0 else None

    # The ceiling keeps git from answering for a repository that encloses root.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    commit = command("git", "-C", str(root), "rev-parse", "HEAD", env=env)
    cpu = {}
    for line in (command("lscpu") or "").splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            cpu[key.strip()] = value.strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_commit": commit.strip() if commit else "unavailable (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lcv": lcv.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("Model name", "unknown"),
        "l2_cache": cpu.get("L2 cache", "unknown"),
        "l3_cache": cpu.get("L3 cache", "unknown"),
    }


def workload_manifest(w: Workload, seed: int, seconds: float) -> dict:
    return {
        "workload": asdict(w),
        "seed": seed,
        "seconds": seconds,
        "loop": "closed, one operation at a time, single process",
        "learning_rate": LEARNING_RATE,
        "eval_noise_std": EVAL_NOISE_STD,
        "working_set": working_set(w),
    }
