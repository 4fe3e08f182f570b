"""Command-line front end: generate / train / eval / sweep / gradcheck.

One JSON document configures everything; ``--seed`` overrides the
synthetic seed from the command line.  Exit codes: 0 on success, 1 on
validation failures (bad arguments, config, or files), 2 on numerical
check failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .cayley import NumericalError
from .costvolume import FeatureMap, FlowField, read_tensor, write_tensor
from .harness import (
    GAMMA_GRID,
    NOISE_GRID,
    PATCH_GRID,
    PerturbSpec,
    SyntheticSpec,
    _split,
    check_window,
    experiment_instances,
    generate,
    perturb,
    report,
    run_gradcheck,
    run_sweep,
    score_pair,
    train_kernel,
)
from .kernel import identity_kernel, load_kernel, save_kernel
from .optim import OptimizerConfig

DEFAULT_CONFIG = {
    "synthetic": asdict(SyntheticSpec()),
    "perturb": asdict(PerturbSpec()),
    "optimizer": asdict(OptimizerConfig()),
    "window": [5, 5],
    "instances": 10,
    "sweep": {
        "seeds": 10,
        "gamma_grid": list(GAMMA_GRID),
        "noise_grid": list(NOISE_GRID),
        "patch_grid": list(PATCH_GRID),
    },
}


def _merge(defaults, user, crumb=""):
    if not isinstance(user, dict):
        raise ValueError(f"config: expected an object at {crumb or 'top level'}")
    out = {}
    for key, base in defaults.items():
        if key in user and isinstance(base, dict) and base:
            out[key] = _merge(base, user[key], f"{crumb}{key}.")
        elif key in user:
            out[key] = user[key]
        else:
            out[key] = base
    unknown = set(user) - set(defaults)
    if unknown:
        raise ValueError(f"config: unknown key(s) {sorted(unknown)} at {crumb or 'top level'}")
    return out


def load_config(path: str | None) -> dict:
    """Read a config JSON and fill gaps from the defaults."""
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    try:
        with open(path) as fh:
            user = json.load(fh)
    except json.JSONDecodeError as err:
        raise ValueError(f"config: {path} is not valid JSON ({err})") from err
    return _merge(DEFAULT_CONFIG, user)


def _integer(value, key: str) -> int:
    """``value`` if it is a JSON integer; floats and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"config: {key} must be an integer, got {value!r}")
    return value


def _synthetic(cfg: dict, seed_override: int | None) -> SyntheticSpec:
    section = dict(cfg["synthetic"])
    if seed_override is not None:
        section["seed"] = seed_override
    for key in ("seed", "signal_channels"):
        _integer(section[key], f"synthetic.{key}")
    return SyntheticSpec(**section)


def _perturb(cfg: dict) -> PerturbSpec:
    return PerturbSpec(**cfg["perturb"])


def _optimizer(cfg: dict) -> OptimizerConfig:
    return OptimizerConfig(**cfg["optimizer"])


def _window(cfg: dict) -> tuple[int, int]:
    window = cfg["window"]
    if not (isinstance(window, (list, tuple)) and len(window) == 2):
        raise ValueError(f"config: window must be a pair, got {window!r}")
    return _integer(window[0], "window"), _integer(window[1], "window")


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    spec = _synthetic(cfg, args.seed)
    f1, f2, flow = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_tensor(out / "f1.lcvt", f1.data)
    write_tensor(out / "f2.lcvt", f2.data)
    write_tensor(out / "flow.lcvt", flow.data)
    cfg["synthetic"]["seed"] = spec.seed
    with open(out / "meta.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"generate: wrote {spec.channels}x{spec.height}x{spec.width} pair to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    spec = _synthetic(cfg, args.seed)
    opt = _optimizer(cfg)
    window = _window(cfg)
    count = _integer(cfg["instances"], "instances")
    check_window(window, spec.max_displacement)
    data, _ = experiment_instances(spec, count)
    n_train, _ = _split(count)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_kernel(f"{out}.step0.lcvk", identity_kernel(spec.channels))
    learned, records = train_kernel(data[:n_train], opt, window)
    save_kernel(f"{out}.lcvk", learned)
    with open(f"{out}.log", "w") as fh:
        for record in records:
            fh.write(json.dumps(asdict(record)) + "\n")
    print(
        f"train: {records[-1].step} steps, final loss {records[-1].loss:.6f}, "
        f"checkpoint {out}.lcvk"
    )
    return 0


def cmd_eval(args) -> int:
    data_dir = Path(args.data)
    meta_path = data_dir / "meta.json"
    if args.config is not None:
        cfg = load_config(args.config)
    elif meta_path.exists():
        cfg = load_config(str(meta_path))
    else:
        cfg = load_config(None)
    window = _window(cfg)
    p = _perturb(cfg)
    spec = _synthetic(cfg, args.seed)

    kernel = load_kernel(args.checkpoint)
    f1 = FeatureMap(read_tensor(data_dir / "f1.lcvt"))
    f2 = FeatureMap(read_tensor(data_dir / "f2.lcvt"))
    gt = FlowField(read_tensor(data_dir / "flow.lcvt"))
    f2p = perturb(f2, p, seed=spec.seed, signal_channels=min(spec.signal_channels, f2.channels))
    scores = score_pair(f1, f2p, gt, kernel, identity_kernel(f1.channels), window)
    metrics = {
        "aepe": scores["aepe_learned"],
        "fl_all": scores["fl_learned"],
        "aepe_identity": scores["aepe_identity"],
        "fl_identity": scores["fl_identity"],
    }
    with open(args.out, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"eval: aepe {metrics['aepe']:.4f} (identity {metrics['aepe_identity']:.4f})")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    spec = _synthetic(cfg, args.seed)
    opt = _optimizer(cfg)
    window = _window(cfg)
    sweep_cfg = cfg["sweep"]
    raw_seeds = sweep_cfg["seeds"]
    if isinstance(raw_seeds, list):
        seeds = [_integer(s, "sweep.seeds") for s in raw_seeds]
    else:
        seeds = [spec.seed + i for i in range(_integer(raw_seeds, "sweep.seeds"))]
    results = run_sweep(
        spec,
        opt,
        window,
        seeds,
        gamma_grid=tuple(sweep_cfg["gamma_grid"]),
        noise_grid=tuple(sweep_cfg["noise_grid"]),
        patch_grid=tuple(sweep_cfg["patch_grid"]),
        instances=_integer(cfg["instances"], "instances"),
    )
    csv_path, json_path = report(results, args.out)
    print(f"sweep: {len(results)} rows -> {csv_path}, {json_path}")
    return 0


def cmd_gradcheck(args) -> int:
    checks = run_gradcheck(seed=args.seed or 0, tolerance=args.tolerance, eps=args.eps)
    failures = [c for c in checks if not c.passed]
    worst = max(c.rel_error for c in checks)
    for c in failures:
        print(f"gradcheck FAIL {c.name}: rel error {c.rel_error:.3e}")
    print(
        f"gradcheck: {len(checks) - len(failures)}/{len(checks)} passed, "
        f"worst rel error {worst:.3e}"
    )
    return 0 if not failures else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lcv", description="Learnable cost volume experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write one synthetic instance to a directory")
    p_gen.add_argument("--config", default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train a kernel, write checkpoints and a log")
    p_train.add_argument("--config", default=None)
    p_train.add_argument("--out", required=True, help="output path prefix")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint against stored data")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--config", default=None)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="run the perturbation grids and write reports")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_gc = sub.add_parser("gradcheck", help="validate analytic gradients against finite differences")
    p_gc.add_argument("--seed", type=int, default=None)
    p_gc.add_argument("--tolerance", type=float, default=1e-5)
    p_gc.add_argument("--eps", type=float, default=1e-5)
    p_gc.set_defaults(func=cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
