"""Desk-scale synthetic flow experiments.

The harness builds small two-frame matching problems with known integer
flow, trains a kernel on a split of them through the matching engine of
:mod:`lcv.costvolume` (a per-pixel softmax cross-entropy over the
displacement window), and scores winner-take-all decoding against the
ground truth with and without the learned kernel.

Data model: each instance carries ``signal_channels`` per-pixel unit
vectors (so the true match is the unique inner-product argmax when no
corruption is present) plus ``noise_channels`` of per-frame noise drawn
independently for the two frames.  An optional mixing matrix entangles
all channels.  Perturbations (illumination gamma, additive noise, a
random-content disc) corrupt the second frame at evaluation time.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, astuple, dataclass, replace
from pathlib import Path

import numpy as np

from .cayley import DiagParams, NumericalError, SkewParams, _frozen
from .costvolume import (
    FeatureMap,
    FlowField,
    _adopt,
    # Not called here: perfbench/bench_trace.py finds harness.grad_w's function
    # by this name, then wraps every binding of it, the engine's included.
    _grad_w_from_costs,
    _MatchingProblem,
    _Workspace,
    cost_volume_bilinear,
    epe,
    fl_all,
    matching_loss,
)
from .kernel import SPDKernel, assemble_kernel, identity_kernel, kernel_grad
from .optim import OptimizerConfig, finite_difference_oracle, gradient_step


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and content of one synthetic correspondence problem."""

    height: int = 32
    width: int = 32
    signal_channels: int = 4
    noise_channels: int = 12
    max_displacement: int = 2
    seed: int = 0
    mixing: np.ndarray | None = None

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError("SyntheticSpec: frame dimensions must be positive")
        if self.signal_channels < 1:
            raise ValueError("SyntheticSpec: need at least one signal channel")
        if self.noise_channels < 0:
            raise ValueError("SyntheticSpec: noise_channels must be nonnegative")
        if self.max_displacement < 0:
            raise ValueError("SyntheticSpec: max_displacement must be nonnegative")
        if self.seed < 0:
            raise ValueError("SyntheticSpec: seed must be nonnegative")
        if self.mixing is not None:
            m = _frozen(self.mixing, "SyntheticSpec.mixing", 2)
            c = self.channels
            if m.shape != (c, c):
                raise ValueError(f"SyntheticSpec: mixing must be {(c, c)}, got {m.shape}")
            object.__setattr__(self, "mixing", m)

    @property
    def channels(self) -> int:
        return self.signal_channels + self.noise_channels


@dataclass(frozen=True)
class PerturbSpec:
    """Second-frame corruptions applied at evaluation time."""

    gamma: float = 1.0
    noise_std: float = 0.0
    patch_radius: int = 0

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ValueError("PerturbSpec: gamma must be positive and finite")
        if not 0 <= self.noise_std < np.inf:
            raise ValueError("PerturbSpec: noise_std must be nonnegative and finite")
        if self.patch_radius < 0:
            raise ValueError("PerturbSpec: patch_radius must be nonnegative")


_METRIC_NAMES = ("aepe_identity", "aepe_learned", "fl_identity", "fl_learned")


@dataclass(frozen=True)
class ExperimentResult:
    """Held-out metrics of one training run under one perturbation."""

    aepe_identity: float
    aepe_learned: float
    fl_identity: float
    fl_learned: float
    steps: int
    seed: int
    perturb: PerturbSpec

    def __post_init__(self):
        for name in _METRIC_NAMES:
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"ExperimentResult: {name} must be finite and nonnegative")
        if self.steps < 0:
            raise ValueError("ExperimentResult: steps must be nonnegative")


@dataclass(frozen=True)
class StepRecord:
    """One line of the training log, written as a JSON object."""

    step: int
    loss: float
    grad_norm: float
    wall_ms: float


def generate(spec: SyntheticSpec) -> tuple[FeatureMap, FeatureMap, FlowField]:
    """Draw one two-frame instance with known integer ground-truth flow.

    The second frame's signal content is drawn first as per-pixel unit
    vectors; the first frame gathers it at the flow targets, so the pair
    is an exact resample under the flow and zero-noise instances decode
    exactly by argmax.  Displacements are clamped so every target lands
    inside the frame.  Draw order (second-frame signal, flow rows, flow
    columns, first-frame noise, second-frame noise) is fixed, so a seed
    pins the instance bitwise.
    """
    h, w, m = spec.height, spec.width, spec.max_displacement
    if m >= min(h, w):
        raise ValueError(
            f"generate: max_displacement {m} does not fit a {h}x{w} frame"
        )
    rng = np.random.default_rng(spec.seed)
    cs, c = spec.signal_channels, spec.channels

    sig2 = rng.standard_normal((cs, h, w))
    sig2 /= np.maximum(np.linalg.norm(sig2, axis=0, keepdims=True), 1e-300)

    ii = np.broadcast_to(np.arange(h)[:, None], (h, w))
    jj = np.broadcast_to(np.arange(w)[None, :], (h, w))
    dy = rng.integers(np.maximum(-m, -ii), np.minimum(m, h - 1 - ii) + 1)
    dx = rng.integers(np.maximum(-m, -jj), np.minimum(m, w - 1 - jj) + 1)

    def frame(signal: np.ndarray) -> FeatureMap:
        # Noise channels share the per-channel scale of the unit-norm
        # signal block so no channel is identifiable by amplitude alone.
        data = np.empty((c, h, w))
        data[:cs] = signal
        rng.standard_normal(out=data[cs:])
        data[cs:] *= 1.0 / np.sqrt(cs)
        if spec.mixing is not None:
            data = (spec.mixing @ data.reshape(c, -1)).reshape(c, h, w)
        return _adopt(FeatureMap, data)

    f1 = frame(sig2[:, ii + dy, jj + dx])
    f2 = frame(sig2)
    flow = _adopt(FlowField, np.stack([dx.astype(float), dy.astype(float)]))
    return f1, f2, flow


def perturb(
    f: FeatureMap,
    p: PerturbSpec,
    seed: int,
    signal_channels: int | None = None,
) -> FeatureMap:
    """Corrupt a feature map according to ``p``; the input stays untouched.

    Gamma curves each signal channel after min-max normalization to [0, 1]
    and maps the result back to the channel's original range, mimicking an
    illumination change at feature level.  Additive noise and the
    random-content disc hit all channels.  The identity spec returns the
    data bitwise unchanged.  Draw order: additive noise, patch center,
    patch content.
    """
    data = np.array(f.data)
    _perturb_in_place(data, p, seed, signal_channels)
    return _adopt(FeatureMap, data)


def _perturb_in_place(data: np.ndarray, p: PerturbSpec, seed: int,
                      signal_channels: int | None = None) -> None:
    """:func:`perturb` on ``data`` ``(c, h, w)`` itself: a finite float64
    frame the caller owns, changed only once every argument has passed.

    Channel by channel, a gamma channel is curved first, then the noise is
    drawn into one ``(h, w)`` buffer, scaled and added.  Drawn channel by
    channel in order, the noise takes the stream as one ``(c, h, w)`` draw
    does, and ``x + s * z`` has the bits of the ``x + (0.0 + s * z)`` of
    adding ``rng.normal(0.0, s)``, but where ``x`` and ``s * z`` are both -0.0.
    """
    c, h, w = data.shape
    cs = c if signal_channels is None else int(signal_channels)
    if not 0 <= cs <= c:
        raise ValueError(f"perturb: signal_channels {cs} outside [0, {c}]")
    _check_disc(p, h, w)
    r = p.patch_radius
    rng = np.random.default_rng(seed)

    # Leading channels on the gamma curve; a channel with no pixels has no range.
    curved = cs if p.gamma != 1.0 and h * w > 0 else 0
    noise = np.empty((h, w)) if p.noise_std > 0.0 else None
    for ch, x in enumerate(data):
        if ch < curved:
            lo = x.min()
            hi = x.max()
            if hi > lo:
                x[...] = lo + (hi - lo) * ((x - lo) / (hi - lo)) ** p.gamma
        if noise is not None:
            rng.standard_normal(out=noise)
            noise *= p.noise_std
            x += noise

    if r > 0:
        cy = int(rng.integers(r, h - r))
        cx = int(rng.integers(r, w - r))
        yy, xx = np.ogrid[:h, :w]
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        data[:, mask] = rng.standard_normal((c, int(mask.sum())))


def _check_disc(p: PerturbSpec, h: int, w: int) -> None:
    """Reject a perturbation whose disc does not fit an ``h x w`` frame."""
    r = p.patch_radius
    if r > 0 and 2 * r + 1 > min(h, w):
        raise ValueError(f"perturb: disc of radius {r} does not fit a {h}x{w} frame")


def _objective(instances: list[tuple[FeatureMap, FeatureMap, FlowField]],
               window: tuple[int, int], workspace: _Workspace | None = None):
    """The training objective ``W -> (loss, dW, train_aepe)``: the pairs' mean
    matching loss, its gradient on ``W`` and the mean AEPE of their decodes,
    each summed in pair order, then divided by the pair count.  The pairs'
    problems are built once and share one workspace: they run one at a time."""
    workspace = _Workspace() if workspace is None else workspace
    problems = [_MatchingProblem(f1, f2, gt, window, workspace) for f1, f2, gt in instances]
    c, n = instances[0][0].channels, len(problems)

    def evaluate(W: np.ndarray) -> tuple[float, np.ndarray, float]:
        loss, dW, train_aepe = 0.0, np.zeros((c, c)), 0.0
        for problem in problems:
            loss_i, dW_i, aepe_i = problem.loss_grad(W)
            loss += loss_i
            dW += dW_i
            train_aepe += aepe_i
        dW /= n
        return loss / n, dW, train_aepe / n

    return evaluate


def train_kernel(
    instances: list[tuple[FeatureMap, FeatureMap, FlowField]],
    opt: OptimizerConfig,
    window: tuple[int, int],
    *,
    _workspace: _Workspace | None = None,
) -> tuple[SPDKernel, list[StepRecord]]:
    """Full-batch gradient descent on :func:`_objective`, from the identity kernel.

    Every visited kernel is scored by decoding the training instances;
    the returned kernel is the earliest one with the strictly lowest
    training AEPE, so training can never hand back something worse than
    the identity start on data the identity already solves.  Makes
    exactly ``opt.max_steps`` updates; the last visited kernel is scored
    but not stepped, since that step's kernel would never be scored.  One
    record per visited kernel, so ``records[-1].step`` is ``opt.max_steps``.
    """
    if not instances:
        raise ValueError("train_kernel: need at least one instance")
    objective = _objective(instances, window, _workspace)
    kernel = best_kernel = identity_kernel(instances[0][0].channels)
    best_aepe, records = float("inf"), []

    for step in range(opt.max_steps + 1):
        t0 = time.perf_counter()
        loss, dW, train_aepe = objective(kernel.W)
        if train_aepe < best_aepe:
            best_aepe, best_kernel = train_aepe, kernel

        grad_norm, update = gradient_step(kernel, dW, opt.mode)
        records.append(StepRecord(step=step, loss=loss, grad_norm=grad_norm,
                                  wall_ms=(time.perf_counter() - t0) * 1000.0))
        if step == opt.max_steps:
            break
        try:
            kernel = update(opt.learning_rate)
        except ValueError as err:
            # The inputs were valid, so a rejected kernel means the step overflowed.
            raise NumericalError(
                f"train_kernel: step {step + 1} left the SPD chart: {err}") from err

    return best_kernel, records


def _split(instances: int) -> tuple[int, int]:
    """80/20 train/eval split with at least one instance on each side."""
    if instances < 2:
        raise ValueError(f"instances must be at least 2, got {instances}")
    n_eval = max(1, instances // 5)
    return instances - n_eval, n_eval


def check_window(window: tuple[int, int], max_displacement: int) -> None:
    """Reject a window that is even or too small to hold every true match."""
    u, v = window
    if u % 2 == 0 or v % 2 == 0 or min(u, v) < 2 * max_displacement + 1:
        raise ValueError(f"window {tuple(window)} must be odd and cover "
                         f"max_displacement {max_displacement}")


def experiment_instances(
    spec: SyntheticSpec, instances: int
) -> tuple[list[tuple[FeatureMap, FeatureMap, FlowField]], np.ndarray]:
    """Instances and derived seeds shared by every experiment entry point.

    ``spec.seed`` expands into ``2 * instances`` independent seeds: one
    generation seed per instance followed by one perturbation seed per
    instance.  Returns the generated instances and the full seed array.
    """
    seeds = np.random.SeedSequence(spec.seed).generate_state(2 * instances, dtype=np.uint64)
    data = [generate(replace(spec, seed=int(seeds[i]))) for i in range(instances)]
    return data, seeds


def score_pair(
    f1: FeatureMap, f2: FeatureMap, gt: FlowField, learned: SPDKernel, window: tuple[int, int],
    *, _workspace: _Workspace | None = None,
) -> dict[str, float]:
    """AEPE and Fl-all of one pair decoded under ``W = I`` and under ``learned``.

    The identity decode is the vanilla inner product, with no ``f1^T W``
    product.  Keys are the metric fields of :class:`ExperimentResult`.
    A pair with no pixels has no mean error, so it is rejected.
    """
    problem = _MatchingProblem(f1, f2, gt, window, _workspace)
    scores = {}
    for name, W in (("identity", None), ("learned", learned.W)):
        flow = problem.decode(W)
        scores[f"aepe_{name}"] = epe(flow, gt)
        scores[f"fl_{name}"] = fl_all(flow, gt)
    return scores


def _train_and_score(
    spec: SyntheticSpec,
    points: list[PerturbSpec],
    opt: OptimizerConfig,
    window: tuple[int, int],
    instances: int,
) -> list[ExperimentResult]:
    """Train one kernel on the clean split, then score it at every point.

    Each point perturbs the second frame of every held-out instance with
    that instance's own perturbation seed, so every point sees the same
    corruption draws.  Training and scoring write into one workspace.
    Every argument is checked before the first pair is drawn.
    """
    check_window(window, spec.max_displacement)
    n_train, n_eval = _split(instances)
    for p in points:
        _check_disc(p, spec.height, spec.width)
    data, seeds = experiment_instances(spec, instances)
    workspace = _Workspace()
    learned, records = train_kernel(data[:n_train], opt, window, _workspace=workspace)
    # Freeing the training pairs before scoring keeps a run's peak memory
    # lower: by about 6 MiB resident at c=64, 64x64, 9x9 with 2 instances.
    del data[:n_train]

    results = []
    for p in points:
        sums = dict.fromkeys(_METRIC_NAMES, 0.0)
        for j, (f1, f2, gt) in enumerate(data):
            f2p = perturb(f2, p, seed=int(seeds[instances + n_train + j]),
                          signal_channels=spec.signal_channels)
            for name, value in score_pair(f1, f2p, gt, learned, window,
                                          _workspace=workspace).items():
                sums[name] += value
        results.append(ExperimentResult(
            **{name: total / n_eval for name, total in sums.items()},
            steps=records[-1].step, seed=spec.seed, perturb=p,
        ))
    return results


def run_experiment(
    spec: SyntheticSpec,
    p: PerturbSpec,
    opt: OptimizerConfig,
    window: tuple[int, int],
    instances: int = 10,
) -> ExperimentResult:
    """Train on clean instances, evaluate on perturbed held-out ones.

    ``spec.seed`` pins everything: per-instance generation seeds and
    per-instance perturbation seeds are derived from it, the train/eval
    split is the deterministic 80/20 prefix split, and training starts
    from the identity kernel.
    """
    return _train_and_score(spec, [p], opt, window, instances)[0]


GAMMA_GRID = (0.2, 0.3, 0.4, 0.5, 0.7, 1.0, 2.0, 3.0)
NOISE_GRID = (0.0001, 0.001, 0.01, 0.1)
PATCH_GRID = (2, 4, 6, 8)


def run_sweep(
    spec: SyntheticSpec,
    opt: OptimizerConfig,
    window: tuple[int, int],
    seeds: list[int],
    gamma_grid=GAMMA_GRID,
    noise_grid=NOISE_GRID,
    patch_grid=PATCH_GRID,
    instances: int = 10,
) -> list[ExperimentResult]:
    """Evaluate one trained kernel per seed across the perturbation grids.

    Training only sees clean instances, so for a fixed seed every grid
    point shares the same learned kernel; results are identical to
    calling :func:`run_experiment` point by point, just without the
    redundant retraining.  With no seed, a bad seed or no grid point it
    raises before the first seed trains.
    """
    points = (
        [PerturbSpec(gamma=g) for g in gamma_grid]
        + [PerturbSpec(noise_std=s) for s in noise_grid]
        + [PerturbSpec(patch_radius=r) for r in patch_grid]
    )
    if len(seeds) == 0 or not points:
        raise ValueError(f"run_sweep: nothing to sweep over {len(seeds)} seed(s) x "
                         f"{len(points)} grid point(s)")
    specs = [replace(spec, seed=int(seed)) for seed in seeds]
    return [r for s in specs for r in _train_and_score(s, points, opt, window, instances)]


_CSV_COLUMNS = ("seed", "gamma", "noise_std", "patch_radius", "steps") + _METRIC_NAMES


def report(results: list[ExperimentResult], out_dir) -> tuple[Path, Path]:
    """Write results as ``results.csv`` plus ``summary.json``.

    The CSV holds one row per (seed, perturbation), sorted by perturbation
    then seed, with floats in shortest round-trip form.  The JSON groups
    rows by perturbation and reports median, quartiles (linear
    interpolation), and interquartile range per metric across seeds.
    Raises before touching the filesystem when given no results.
    """
    if not results:
        raise ValueError("report: no results to write")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    ordered = sorted(results, key=lambda r: (astuple(r.perturb), r.seed))
    csv_path = out / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for r in ordered:
            writer.writerow([
                r.seed, repr(r.perturb.gamma), repr(r.perturb.noise_std),
                r.perturb.patch_radius, r.steps,
                *(repr(getattr(r, name)) for name in _METRIC_NAMES),
            ])

    groups: dict[PerturbSpec, list[ExperimentResult]] = {}
    for r in ordered:
        groups.setdefault(r.perturb, []).append(r)
    summary = {"groups": []}
    for p, members in groups.items():
        entry = {**asdict(p), "seeds": len(members), "metrics": {}}
        for name in _METRIC_NAMES:
            values = np.array([getattr(r, name) for r in members])
            q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
            entry["metrics"][name] = {
                "median": float(med), "q1": float(q1), "q3": float(q3),
                "iqr": float(q3 - q1),
            }
        summary["groups"].append(entry)
    json_path = out / "summary.json"
    write_json(json_path, summary)
    return csv_path, json_path


def write_json(path, document) -> None:
    """Write ``document`` in the package's one JSON format: indent 2, sorted keys, final newline."""
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class GradCheckResult:
    name: str
    rel_error: float
    passed: bool


def run_gradcheck(
    seed: int = 0,
    tolerance: float = 1e-5,
    eps: float = 1e-5,
) -> list[GradCheckResult]:
    """Validate every analytic gradient against central finite differences.

    Two families of 20 checks each: trace-type losses ``<A, W>`` on random
    kernels at several sizes, and the full softmax matching loss through a
    cost volume on random 4-channel 4x4 instances.
    """
    if not 0 < tolerance < np.inf:
        raise ValueError(f"run_gradcheck: tolerance must be positive and finite, got {tolerance}")

    rng = np.random.default_rng(seed)
    checks: list[GradCheckResult] = []

    def check(name, s, t, loss, dL_dW):
        """The relative error of ``kernel_grad`` of ``dL_dW(W)`` against
        central differences of ``loss`` at ``(s, t)``."""
        kernel = assemble_kernel(s, t)
        a, b = kernel_grad(kernel, dL_dW(kernel.W)), finite_difference_oracle(loss, s, t, eps=eps)
        va, vb = (np.concatenate([g.d_skew, g.d_diag]) for g in (a, b))
        denom = max(np.linalg.norm(va), np.linalg.norm(vb))
        err = float(np.linalg.norm(va - vb) / denom) if denom else 0.0
        checks.append(GradCheckResult(name, err, err < tolerance))

    sizes = (2, 6, 16)
    for i in range(20):
        c = sizes[i % len(sizes)]
        s = SkewParams(entries=rng.uniform(-0.8, 0.8, c * (c - 1) // 2), dim=c)
        t = DiagParams(t=rng.uniform(-0.8, 0.8, c))
        A = rng.standard_normal((c, c))
        check(f"trace_c{c}_{i}", s, t, lambda sp, tp: float(np.sum(A * assemble_kernel(sp, tp).W)),
              lambda W: A)

    for i in range(20):
        c, h, w = 4, 4, 4
        f1 = FeatureMap(0.5 * rng.standard_normal((c, h, w)))
        f2 = FeatureMap(0.5 * rng.standard_normal((c, h, w)))
        gt = FlowField(rng.integers(-1, 2, (2, h, w)).astype(float))
        s = SkewParams(entries=rng.uniform(-0.5, 0.5, c * (c - 1) // 2), dim=c)
        t = DiagParams(t=rng.uniform(-0.5, 0.5, c))
        # The probes take the loss through the public cost volume, without
        # the backward and the decode that the analytic side runs.
        def match_loss(sp, tp):
            return matching_loss(cost_volume_bilinear(f1, f2, assemble_kernel(sp, tp).W, 3, 3), gt)[0]

        # The analytic side is the gradient that training follows.
        objective = _objective([(f1, f2, gt)], (3, 3))
        check(f"matching_{i}", s, t, match_loss, lambda W: objective(W)[1])

    return checks
