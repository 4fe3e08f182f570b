"""The comparison of ``tools/byte_identity.py`` on canned output directories,
and its perturbed-frame digest; the CLI is not run."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

import lcv
from lcv import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "byte_identity.py"
_spec = importlib.util.spec_from_file_location("byte_identity", TOOL)
byte_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_identity)


def _log(wall_ms, loss=0.5):
    return "".join(json.dumps({"step": i, "loss": loss, "grad_norm": 0.25, "wall_ms": wall_ms + i}) + "\n"
                   for i in range(3))


def _write(root: Path, files: dict[str, str | bytes]) -> Path:
    for name, content in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    return root


FILES = {
    "cayley/data/f1.lcvt": b"LCVT\x01\x00" + bytes(range(16)),
    "cayley/ck.lcvk": b"LCVK\x01" + bytes(8),
    "cayley/ck.log": _log(1.0),
    "stiefel/sweep/results.csv": "seed,gamma\n7,0.5\n",
}


def _pair(tmp_path, **changed):
    a = _write(tmp_path / "a", FILES)
    b = _write(tmp_path / "b", {**FILES, **changed})
    return a, b


def test_identical_trees_have_no_differences(tmp_path):
    assert byte_identity.differences(*_pair(tmp_path)) == []


def test_one_byte_difference_is_named(tmp_path):
    tensor = bytearray(FILES["cayley/data/f1.lcvt"])
    tensor[-1] ^= 1
    a, b = _pair(tmp_path, **{"cayley/data/f1.lcvt": bytes(tensor)})
    assert byte_identity.differences(a, b) == ["cayley/data/f1.lcvt"]


def test_wall_times_alone_do_not_differ(tmp_path):
    assert byte_identity.differences(*_pair(tmp_path, **{"cayley/ck.log": _log(99.0)})) == []


def test_log_values_besides_wall_times_differ(tmp_path):
    a, b = _pair(tmp_path, **{"cayley/ck.log": _log(1.0, loss=0.5000000000000001)})
    assert byte_identity.differences(a, b) == ["cayley/ck.log"]


def test_a_file_on_one_side_only_is_named(tmp_path):
    a, b = _pair(tmp_path, **{"stiefel/sweep/summary.json": "{}\n"})
    assert byte_identity.differences(a, b) == ["stiefel/sweep/summary.json"]
    assert byte_identity.differences(b, a) == ["stiefel/sweep/summary.json"]


@pytest.mark.parametrize("changed, code", [({}, 0), ({"stiefel/sweep/results.csv": "seed,gamma\n7,0.6\n"}, 1)])
def test_main_exits_nonzero_naming_each_differing_file(tmp_path, monkeypatch, capsys, changed, code):
    def canned(tree, out):
        _write(out, {**FILES, **changed} if tree.name == "change" else FILES)

    monkeypatch.setattr(byte_identity, "run_recipe", canned)
    assert byte_identity.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == code
    out = capsys.readouterr().out
    assert ("differs: stiefel/sweep/results.csv" in out) == bool(changed)
    assert f"{len(FILES)} files compared" in out


def test_key_differences_name_each_moved_key():
    parent = {"optimizer": {"learning_rate": 0.01, "grad_tolerance": 1e-6},
              "window": [3, 3], "instances": 5, "sweep": {"seeds": [7]}}
    change = {"optimizer": {"learning_rate": 0.01, "momentum": 0.9},
              "window": [3, 5], "instances": 5.0, "sweep": {"seeds": [7]}}
    assert byte_identity.key_differences(parent, change) == [
        "instances: differs",
        "optimizer.grad_tolerance: only in parent",
        "optimizer.momentum: only in change",
        "window: differs",
    ]
    assert byte_identity.key_differences(parent, parent) == []
    assert byte_identity.key_differences([1], [2]) == ["(top level): differs"]


def test_main_prints_the_keys_that_moved_inside_a_json_file(tmp_path, monkeypatch, capsys):
    meta = {"optimizer": {"learning_rate": 0.01, "max_steps": 40, "mode": "cayley"}}
    files = {**FILES, "cayley/data/meta.json": json.dumps(meta), "stiefel/sweep/summary.json": "[]"}

    def canned(tree, out):
        if tree.name == "parent":
            _write(out, {**files, "cayley/data/meta.json": json.dumps(
                {"optimizer": {**meta["optimizer"], "grad_tolerance": 1e-6}})})
        else:
            _write(out, {**files, "stiefel/sweep/summary.json": "[1]"})

    monkeypatch.setattr(byte_identity, "run_recipe", canned)
    assert byte_identity.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    assert capsys.readouterr().out.splitlines()[:4] == [
        "differs: cayley/data/meta.json",
        "  optimizer.grad_tolerance: only in parent",
        "differs: stiefel/sweep/summary.json",
        "  (top level): differs",
    ]


def test_a_perturbation_below_the_decode_is_reported(tmp_path):
    # A tree whose noise is scaled by 1 + 2**-50 moves no decoded match of
    # the recipe, but the digest of the frame ``lcv eval`` scores differs.
    repo = TOOL.parents[1]
    config, data, checkpoint = tmp_path / "config.json", tmp_path / "data", tmp_path / "k.lcvk"
    config.write_text(json.dumps(byte_identity.CONFIG))
    assert cli.main(["generate", "--config", str(config), "--out", str(data)]) == 0
    channels = lcv.SyntheticSpec(**byte_identity.CONFIG["synthetic"]).channels
    lcv.save_kernel(checkpoint, lcv.identity_kernel(channels))
    scaled = tmp_path / "scaled"
    shutil.copytree(repo / "src" / "lcv", scaled / "src" / "lcv")
    harness = scaled / "src" / "lcv" / "harness.py"
    source = harness.read_text()
    assert source.count("noise *= p.noise_std\n") == 1
    harness.write_text(source.replace("noise *= p.noise_std\n", "noise *= p.noise_std * (1 + 2**-50)\n"))

    outs = {}
    for side, tree in (("a", repo), ("b", repo), ("scaled", scaled)):
        outs[side] = tmp_path / "out" / side
        outs[side].mkdir(parents=True)
        byte_identity.write_perturbed_digest(tree, checkpoint, data, outs[side] / "perturbed_f2.sha256")
    assert byte_identity.differences(outs["a"], outs["b"]) == []
    assert byte_identity.differences(outs["a"], outs["scaled"]) == ["perturbed_f2.sha256"]
