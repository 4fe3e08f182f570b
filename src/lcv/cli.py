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
from .costvolume import FeatureMap, FlowField, _adopt, read_tensor, write_tensor
from .harness import (
    GAMMA_GRID,
    NOISE_GRID,
    PATCH_GRID,
    PerturbSpec,
    SyntheticSpec,
    _perturb_in_place,
    _split,
    check_window,
    experiment_instances,
    generate,
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


# Leaves that take more JSON types than their default shows.
_ALTERNATIVES = {"synthetic.mixing": (None, [[0.0]]), "sweep.seeds": (0, [0])}
# The JSON types of the defaults, in words.
_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", type(None): "null"}


def _check_type(value, bases, key: str) -> None:
    """Refuse ``value`` unless it has the JSON type of one of the defaults
    ``bases``: an integer where one is an integer, any number in a float's
    range where one is a float (a boolean is neither), a string or null
    where one is that, and a list whose items pass against that default's
    items where one is a list."""
    for base in bases:
        if isinstance(base, list) and isinstance(value, list):
            for item in value:
                _check_type(item, base, key)
            return
        if type(value) is type(base) or (
                (type(base), type(value)) == (float, int) and abs(value) <= sys.float_info.max):
            return
    kinds = " or ".join(dict.fromkeys(_KINDS[type(base)] for base in bases))
    raise ValueError(f"config: {key} must be {kinds}, got {value!r}")


def _merge(defaults, user, crumb=""):
    if not isinstance(user, dict):
        raise ValueError(f"config: expected an object at {crumb or 'top level'}")
    out = {}
    for key, base in defaults.items():
        if key in user and isinstance(base, dict) and base:
            out[key] = _merge(base, user[key], f"{crumb}{key}.")
        elif key in user:
            path = crumb + key
            _check_type(user[key], _ALTERNATIVES.get(path, (base,)), path)
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


def _synthetic(cfg: dict, seed_override: int | None) -> SyntheticSpec:
    section = dict(cfg["synthetic"])
    if seed_override is not None:
        section["seed"] = seed_override
    return SyntheticSpec(**section)


def _window(cfg: dict) -> tuple[int, int]:
    window = cfg["window"]
    if len(window) != 2:
        raise ValueError(f"config: window must be a pair, got {window!r}")
    return tuple(window)


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
    opt = OptimizerConfig(**cfg["optimizer"])
    window = _window(cfg)
    n_train, _ = _split(cfg["instances"])
    check_window(window, spec.max_displacement)
    # The instances are a prefix of the run's, so only the training pairs are drawn.
    data, _ = experiment_instances(spec, n_train)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_kernel(f"{out}.step0.lcvk", identity_kernel(spec.channels))
    learned, records = train_kernel(data, opt, window)
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
    p = PerturbSpec(**cfg["perturb"])
    spec = _synthetic(cfg, args.seed)

    kernel = load_kernel(args.checkpoint)
    # The arrays read are the containers' own.  The second frame is perturbed
    # where it was read, once FeatureMap's checks have passed on a view of it
    # (which leaves the frame itself writable).
    f1 = _adopt(FeatureMap, read_tensor(data_dir / "f1.lcvt"))
    f2 = read_tensor(data_dir / "f2.lcvt")
    _adopt(FeatureMap, f2.view())
    gt = _adopt(FlowField, read_tensor(data_dir / "flow.lcvt"))
    # Without ``--seed`` the stream is derived from the pair's seed, whose own
    # stream drew the pair: replayed as noise, it would move no signal match.
    seed = spec.seed if args.seed is not None else np.random.SeedSequence(spec.seed).generate_state(1)[0]
    _perturb_in_place(f2, p, seed=int(seed), signal_channels=min(spec.signal_channels, len(f2)))
    f2 = _adopt(FeatureMap, f2)
    scores = score_pair(f1, f2, gt, kernel, window)
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
    opt = OptimizerConfig(**cfg["optimizer"])
    window = _window(cfg)
    sweep_cfg = cfg["sweep"]
    seeds = sweep_cfg["seeds"]
    if not isinstance(seeds, list):
        seeds = [spec.seed + i for i in range(seeds)]
    if not seeds:
        raise ValueError(f"config: sweep.seeds must name at least one seed, got {sweep_cfg['seeds']!r}")
    grids = ("gamma_grid", "noise_grid", "patch_grid")
    if not any(sweep_cfg[g] for g in grids):
        raise ValueError(f"config: sweep.{', sweep.'.join(grids)} are all empty")
    results = run_sweep(
        spec,
        opt,
        window,
        seeds,
        gamma_grid=tuple(sweep_cfg["gamma_grid"]),
        noise_grid=tuple(sweep_cfg["noise_grid"]),
        patch_grid=tuple(sweep_cfg["patch_grid"]),
        instances=cfg["instances"],
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


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, as every other malformed input does; exit 2
    stays the code of numerical failures.  Subparsers take this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lcv", description="Learnable cost volume experiment harness")
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
    return parser


# Built once: an in-process caller does not pay for it on every call.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
