"""Desk-scale synthetic flow experiments.

The harness builds small two-frame matching problems with known integer
flow, trains a kernel on a split of them with a per-pixel softmax
cross-entropy over the displacement window, and scores winner-take-all
decoding against the ground truth with and without the learned kernel.

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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .cayley import NumericalError, _frozen
from .costvolume import (
    FeatureMap,
    FlowField,
    _cells_by_magnitude,
    _channel_last,
    _check_pair,
    _window_costs,
    _window_targets,
    _winners,
    cost_volume_bilinear,
    epe,
    fl_all,
)
from .kernel import SPDKernel, identity_kernel, kernel_grad
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
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise ValueError("PerturbSpec: gamma must be positive and finite")
        if not (self.noise_std >= 0 and np.isfinite(self.noise_std)):
            raise ValueError("PerturbSpec: noise_std must be nonnegative and finite")
        if self.patch_radius < 0:
            raise ValueError("PerturbSpec: patch_radius must be nonnegative")


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
        for name in ("aepe_identity", "aepe_learned", "fl_identity", "fl_learned"):
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
        return FeatureMap(data)

    f1 = frame(sig2[:, ii + dy, jj + dx])
    f2 = frame(sig2)
    flow = FlowField(np.stack([dx.astype(float), dy.astype(float)]))
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
    c, h, w = f.data.shape
    cs = c if signal_channels is None else int(signal_channels)
    if not 0 <= cs <= c:
        raise ValueError(f"perturb: signal_channels {cs} outside [0, {c}]")
    data = np.array(f.data)
    rng = np.random.default_rng(seed)

    if p.gamma != 1.0:
        for ch in range(cs):
            lo = data[ch].min()
            hi = data[ch].max()
            if hi > lo:
                x = (data[ch] - lo) / (hi - lo)
                data[ch] = lo + (hi - lo) * np.sign(x) * np.abs(x) ** p.gamma

    if p.noise_std > 0.0:
        data += rng.normal(0.0, p.noise_std, data.shape)

    if p.patch_radius > 0:
        r = p.patch_radius
        if 2 * r + 1 > min(h, w):
            raise ValueError(f"perturb: disc of radius {r} does not fit a {h}x{w} frame")
        cy = int(rng.integers(r, h - r))
        cx = int(rng.integers(r, w - r))
        yy, xx = np.ogrid[:h, :w]
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        data[:, mask] = rng.standard_normal((c, int(mask.sum())))

    return FeatureMap(data)


def _labels(gt: FlowField, u: int, v: int) -> np.ndarray:
    """Row-major window cell of every pixel's ground-truth displacement."""
    ru, rv = (u - 1) // 2, (v - 1) // 2
    dx = np.rint(gt.data[0]).astype(int)
    dy = np.rint(gt.data[1]).astype(int)
    if np.any(np.abs(dx) > rv) or np.any(np.abs(dy) > ru):
        raise ValueError("matching_loss: ground-truth flow falls outside the window")
    return (dy + ru) * v + (dx + rv)


def _softmax_xent(Z: np.ndarray, best: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of the logits ``Z`` ``(cells, h, w)`` against ``labels``.

    ``best`` is the per-pixel maximum of ``Z``.  Works in place: on return
    ``Z`` holds the gradient of the mean loss with respect to every logit.
    """
    Z -= best
    picked = np.take_along_axis(Z, labels[None], axis=0)[0]
    np.exp(Z, out=Z)
    denom = Z.sum(axis=0)
    loss = float(-(picked - np.log(denom)).mean())
    Z /= denom
    hit = np.take_along_axis(Z, labels[None], axis=0) - 1.0
    np.put_along_axis(Z, labels[None], hit, axis=0)
    Z /= labels.size
    return loss


def matching_loss(cv, gt: FlowField) -> tuple[float, np.ndarray]:
    """Per-pixel softmax cross-entropy over the displacement window.

    The ``u * v`` costs at each pixel act as logits and the ground-truth
    displacement cell as the label.  Returns the mean loss and its
    gradient with respect to every cost entry.
    """
    u, v, h, w = cv.data.shape
    labels = _labels(gt, u, v)
    Z = cv.data.reshape(u * v, h, w).copy()
    loss = _softmax_xent(Z, Z.max(axis=0), labels)
    return loss, Z.reshape(u, v, h, w)


def _grad_w_from_costs(f1: np.ndarray, f2: np.ndarray, dC: np.ndarray) -> np.ndarray:
    """Chain a cost-volume gradient ``dC`` ``(u, v, h, w)`` back to the kernel matrix.

    ``dL/dW[a, b] = sum_klij dC[k,l,i,j] f1[a,i,j] f2[b, i+k-ru, j+l-rv]``
    with zero padding outside the second frame, which comes padded and
    channel-last from :func:`_channel_last`.  The inner sum over cells is
    :func:`_window_targets`, then one GEMM with ``f1``.
    """
    c, h, w = f1.shape
    return f1.reshape(c, h * w) @ _window_targets(f2, dC)


class _MatchingProblem:
    """One pair ``(f1, f2, gt)`` under a ``u x v`` window, scored for many kernels.

    What does not depend on ``W`` is prepared once: the window cells in
    decoding order, the channel-last frames of :func:`_channel_last` (the
    kernel goes onto the first, so the padded second frame serves every
    forward and backward) and, at the first gradient, the labels.
    ``loss_grad`` runs the forward once and takes the decode, the loss and
    the gradient from that one cost tensor.
    """

    def __init__(self, f1: FeatureMap, f2: FeatureMap, gt: FlowField, window: tuple[int, int]):
        u, v = window
        _check_pair(f1, f2, u, v)
        self.f1, self.gt = f1.data, gt
        self.u, self.v = u, v
        self.order = _cells_by_magnitude(u, v)
        self._f1_tiled, self._f2_padded = _channel_last(f1.data, f2.data, u, v)
        self._labels = None

    def _costs(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Costs ``(u * v, h, w)`` under ``W`` and their per-pixel maximum."""
        c, _, w = self.f1.shape
        if W.shape != (c, c):
            raise ValueError(f"matching: W shape {W.shape}, expected {(c, c)}")
        Z = _window_costs(self._f1_tiled, self._f2_padded, W, self.u, self.v, w)
        best = Z.max(axis=0)
        if not (np.isfinite(Z.min()) and np.isfinite(best.max())):
            raise NumericalError("matching: the costs under this kernel are not finite")
        return Z, best

    def decode(self, W: np.ndarray) -> FlowField:
        """Winner-take-all flow under ``W``, as :func:`decode_flow_argmax`."""
        Z, best = self._costs(W)
        return _winners(Z, best, self.order, self.v)

    def loss_grad(self, W: np.ndarray) -> tuple[float, np.ndarray, float]:
        """Mean matching loss, its gradient on ``W`` and the AEPE of the decode."""
        u, v = self.u, self.v
        _, h, w = self.f1.shape
        if self._labels is None:
            self._labels = _labels(self.gt, u, v)
        Z, best = self._costs(W)
        aepe = epe(_winners(Z, best, self.order, v), self.gt)
        loss = _softmax_xent(Z, best, self._labels)
        return loss, _grad_w_from_costs(self.f1, self._f2_padded, Z.reshape(u, v, h, w)), aepe


def matching_loss_grad_w(
    f1: FeatureMap, f2: FeatureMap, kernel: SPDKernel, gt: FlowField, u: int, v: int
) -> tuple[float, np.ndarray, float]:
    """Loss, its gradient on ``W`` and the decoded AEPE for one instance."""
    return _MatchingProblem(f1, f2, gt, (u, v)).loss_grad(kernel.W)


def train_kernel(
    instances: list[tuple[FeatureMap, FeatureMap, FlowField]],
    opt: OptimizerConfig,
    window: tuple[int, int],
) -> tuple[SPDKernel, list[StepRecord]]:
    """Full-batch gradient descent from the identity kernel.

    Every visited kernel is scored by decoding the training instances;
    the returned kernel is the earliest one with the strictly lowest
    training AEPE, so training can never hand back something worse than
    the identity start on data the identity already solves.  Stops when
    the gradient max-norm drops below ``opt.grad_tolerance`` or after
    ``opt.max_steps`` updates.  One record per visited kernel, so
    ``records[-1].step`` is the number of updates.
    """
    if not instances:
        raise ValueError("train_kernel: need at least one instance")
    problems = [_MatchingProblem(f1, f2, gt, window) for f1, f2, gt in instances]
    c = instances[0][0].channels
    kernel = identity_kernel(c)
    records: list[StepRecord] = []
    best_aepe = float("inf")
    best_kernel = kernel

    for step in range(opt.max_steps + 1):
        t0 = time.perf_counter()
        total_loss = 0.0
        train_aepe = 0.0
        dW = np.zeros((c, c))
        for problem in problems:
            loss_i, dW_i, aepe_i = problem.loss_grad(kernel.W)
            total_loss += loss_i
            dW += dW_i
            train_aepe += aepe_i
        n = len(instances)
        dW /= n
        train_aepe /= n

        if train_aepe < best_aepe:
            best_aepe = train_aepe
            best_kernel = kernel

        grad_norm, update = gradient_step(kernel, dW, opt.mode)
        records.append(StepRecord(
            step=step,
            loss=total_loss / n,
            grad_norm=grad_norm,
            wall_ms=(time.perf_counter() - t0) * 1000.0,
        ))

        if grad_norm < opt.grad_tolerance or step == opt.max_steps:
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
        raise ValueError("run_experiment: need at least 2 instances to split")
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


_METRIC_NAMES = ("aepe_identity", "aepe_learned", "fl_identity", "fl_learned")


def score_pair(
    f1: FeatureMap, f2: FeatureMap, gt: FlowField,
    learned: SPDKernel, ident: SPDKernel, window: tuple[int, int],
) -> dict[str, float]:
    """AEPE and Fl-all of one pair decoded under ``ident`` and under ``learned``.

    Keys are the metric fields of :class:`ExperimentResult`.
    """
    problem = _MatchingProblem(f1, f2, gt, window)
    scores = {}
    for name, kernel in (("identity", ident), ("learned", learned)):
        flow = problem.decode(kernel.W)
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
    corruption draws.
    """
    check_window(window, spec.max_displacement)
    data, seeds = experiment_instances(spec, instances)
    n_train, n_eval = _split(instances)
    learned, records = train_kernel(data[:n_train], opt, window)
    ident = identity_kernel(spec.channels)

    results = []
    for p in points:
        sums = dict.fromkeys(_METRIC_NAMES, 0.0)
        for j, (f1, f2, gt) in enumerate(data[n_train:]):
            f2p = perturb(f2, p, seed=int(seeds[instances + n_train + j]),
                          signal_channels=spec.signal_channels)
            for name, value in score_pair(f1, f2p, gt, learned, ident, window).items():
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
    redundant retraining.
    """
    points = (
        [PerturbSpec(gamma=g) for g in gamma_grid]
        + [PerturbSpec(noise_std=s) for s in noise_grid]
        + [PerturbSpec(patch_radius=r) for r in patch_grid]
    )
    return [r for seed in seeds
            for r in _train_and_score(replace(spec, seed=int(seed)), points, opt, window, instances)]


_CSV_COLUMNS = (
    "seed", "gamma", "noise_std", "patch_radius", "steps",
    "aepe_identity", "aepe_learned", "fl_identity", "fl_learned",
)


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

    def sort_key(r: ExperimentResult):
        return (r.perturb.gamma, r.perturb.noise_std, r.perturb.patch_radius, r.seed)

    ordered = sorted(results, key=sort_key)
    csv_path = out / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for r in ordered:
            writer.writerow([
                r.seed, repr(r.perturb.gamma), repr(r.perturb.noise_std),
                r.perturb.patch_radius, r.steps,
                repr(r.aepe_identity), repr(r.aepe_learned),
                repr(r.fl_identity), repr(r.fl_learned),
            ])

    groups: dict[tuple, list[ExperimentResult]] = {}
    for r in ordered:
        groups.setdefault((r.perturb.gamma, r.perturb.noise_std, r.perturb.patch_radius), []).append(r)
    summary = {"groups": []}
    for (gamma, noise_std, patch_radius), members in groups.items():
        entry = {
            "gamma": gamma,
            "noise_std": noise_std,
            "patch_radius": patch_radius,
            "seeds": len(members),
            "metrics": {},
        }
        for name in _METRIC_NAMES:
            values = np.array([getattr(r, name) for r in members])
            q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
            entry["metrics"][name] = {
                "median": float(med), "q1": float(q1), "q3": float(q3),
                "iqr": float(q3 - q1),
            }
        summary["groups"].append(entry)
    json_path = out / "summary.json"
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


@dataclass(frozen=True)
class GradCheckResult:
    name: str
    rel_error: float
    passed: bool


def _grad_rel_error(a, b) -> float:
    va = np.concatenate([a.d_skew, a.d_diag])
    vb = np.concatenate([b.d_skew, b.d_diag])
    denom = max(np.linalg.norm(va), np.linalg.norm(vb))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(va - vb) / denom)


def run_gradcheck(
    seed: int = 0,
    tolerance: float = 1e-5,
    eps: float = 1e-5,
    trace_count: int = 20,
    matching_count: int = 20,
) -> list[GradCheckResult]:
    """Validate every analytic gradient against central finite differences.

    Two families: trace-type losses ``<A, W>`` on random kernels at
    several sizes, and the full softmax matching loss through a cost
    volume on random 4-channel 4x4 instances.
    """
    from .cayley import DiagParams, SkewParams
    from .kernel import assemble_kernel

    rng = np.random.default_rng(seed)
    checks: list[GradCheckResult] = []

    sizes = (2, 6, 16)
    for i in range(trace_count):
        c = sizes[i % len(sizes)]
        s = SkewParams(entries=rng.uniform(-0.8, 0.8, c * (c - 1) // 2), dim=c)
        t = DiagParams(t=rng.uniform(-0.8, 0.8, c))
        A = rng.standard_normal((c, c))

        def trace_loss(sp, tp, A=A):
            return float(np.sum(A * assemble_kernel(sp, tp).W))

        kernel = assemble_kernel(s, t)
        analytic = kernel_grad(kernel, A)
        numeric = finite_difference_oracle(trace_loss, s, t, eps=eps)
        err = _grad_rel_error(analytic, numeric)
        checks.append(GradCheckResult(f"trace_c{c}_{i}", err, err < tolerance))

    for i in range(matching_count):
        c, h, w = 4, 4, 4
        f1 = FeatureMap(0.5 * rng.standard_normal((c, h, w)))
        f2 = FeatureMap(0.5 * rng.standard_normal((c, h, w)))
        gt = FlowField(rng.integers(-1, 2, (2, h, w)).astype(float))
        s = SkewParams(entries=rng.uniform(-0.5, 0.5, c * (c - 1) // 2), dim=c)
        t = DiagParams(t=rng.uniform(-0.5, 0.5, c))

        # The probes take the loss through the public cost volume, without
        # the backward and the decode that the analytic side runs.
        def match_loss(sp, tp, f1=f1, f2=f2, gt=gt):
            cv = cost_volume_bilinear(f1, f2, assemble_kernel(sp, tp).W, 3, 3)
            return matching_loss(cv, gt)[0]

        kernel = assemble_kernel(s, t)
        _, dW, _ = matching_loss_grad_w(f1, f2, kernel, gt, 3, 3)
        analytic = kernel_grad(kernel, dW)
        numeric = finite_difference_oracle(match_loss, s, t, eps=eps)
        err = _grad_rel_error(analytic, numeric)
        checks.append(GradCheckResult(f"matching_{i}", err, err < tolerance))

    return checks
