"""End-to-end tests of the command-line interface.

Most tests drive ``lcv.cli.main`` in process with a throwaway config
small enough to train in well under a second. The ``TestEntryPoint``
tests that check the ``lcv`` console script start a fresh interpreter,
so that the entry point is resolved, called and exited the way an
installed ``lcv`` executable does it.
"""

import contextlib
import copy
import importlib.metadata
import io
import json
import math
import os
import platform
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcv import cli
from lcv.cayley import t_from_lambda
from lcv.cli import DEFAULT_CONFIG, load_config, main
from lcv.costvolume import FeatureMap, read_tensor, write_tensor
from lcv.harness import PerturbSpec, StepRecord, SyntheticSpec, generate, perturb
from lcv.kernel import identity_kernel, load_kernel, save_kernel
from lcv.optim import OptimizerConfig


@pytest.fixture
def tiny_config(tmp_path):
    cfg = {
        "synthetic": {
            "height": 12,
            "width": 12,
            "signal_channels": 2,
            "noise_channels": 2,
            "max_displacement": 1,
            "seed": 3,
        },
        "perturb": {"noise_std": 0.05},
        "optimizer": {"learning_rate": 0.005, "max_steps": 5},
        "window": [3, 3],
        "instances": 3,
        "sweep": {
            "seeds": [3],
            "gamma_grid": [0.5],
            "noise_grid": [0.05],
            "patch_grid": [2],
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def stored_pair(tmp_path_factory):
    """A generated pair, a copy of it to corrupt, and an identity checkpoint.

    Tests that corrupt a file of the copy restore it from the original."""
    root = tmp_path_factory.mktemp("stored")
    cfg = root / "config.json"
    cfg.write_text(json.dumps({"synthetic": {"height": 8, "width": 8, "signal_channels": 2,
                                             "noise_channels": 2, "max_displacement": 1},
                               "window": [3, 3]}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--config", str(cfg), "--out", str(root / "data")]) == 0
    shutil.copytree(root / "data", root / "fuzzed")
    save_kernel(root / "ck.lcvk", identity_kernel(4))
    return root


@st.composite
def malformed_inputs(draw):
    """A tensor or checkpoint cut inside its header or sized unlike its
    header: rank up to 255, dimensions near 2**32.  Returns the file name
    and its bytes."""
    name = draw(st.sampled_from(["f1.lcvt", "flow.lcvt", "fuzz.lcvk"]))
    big = st.integers(2**32 - 8, 2**32 - 1)
    if name == "fuzz.lcvk":
        dim = draw(st.one_of(st.integers(0, 6), big))
        header = struct.pack("<4sBI", b"LCVK", 1, dim)
        declared = 8 * (dim * (dim - 1) // 2 + dim)
    else:
        rank = draw(st.integers(0, 255))
        dims = draw(st.lists(st.one_of(st.integers(0, 9), big), max_size=min(rank, 4)))
        dims += [1] * (rank - len(dims))
        header = struct.pack(f"<4sBB{rank}I", b"LCVT", 1, rank, *dims)
        declared = 8 * math.prod(dims)
    cut = draw(st.one_of(st.none(), st.integers(0, len(header) - 1)))
    if cut is not None:
        return name, header[:cut]
    return name, header + bytes(draw(st.integers(0, 256).filter(lambda n: n != declared)))


class TestConfig:
    def test_defaults_when_no_file(self):
        cfg = load_config(None)
        assert cfg == DEFAULT_CONFIG
        assert cfg is not DEFAULT_CONFIG  # caller gets a private copy

    def test_readme_documents_the_defaults(self):
        readme = (REPO / "README.md").read_text()
        block = readme.split("Default config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        assert json.loads(block) == load_config(None)

    def test_partial_file_fills_gaps(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"window": [3, 3]}))
        cfg = load_config(str(path))
        assert cfg["window"] == [3, 3]
        assert cfg["synthetic"]["height"] == 32

    def test_partial_file_shares_nothing_with_the_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"window": [3, 3]}))

        def containers(value):
            if isinstance(value, (dict, list)):
                yield value
                for child in value.values() if isinstance(value, dict) else value:
                    yield from containers(child)

        defaults = {id(c) for c in containers(DEFAULT_CONFIG)}
        shared = [c for c in containers(load_config(str(path))) if id(c) in defaults]
        assert shared == []

    def test_a_seeded_run_leaves_the_defaults_of_the_next(self, tmp_path, monkeypatch):
        # The defaults are swapped for a copy, so that a leak stays in this test.
        monkeypatch.setattr(cli, "DEFAULT_CONFIG", copy.deepcopy(DEFAULT_CONFIG))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"window": [3, 3]}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", str(path), "--seed", "5", "--out", str(a)]) == 0
        assert main(["generate", "--out", str(b)]) == 0
        assert json.loads((b / "meta.json").read_text())["synthetic"]["seed"] == 0
        assert read_tensor(b / "f1.lcvt").tobytes() == generate(SyntheticSpec())[0].data.tobytes()
        assert cli.DEFAULT_CONFIG == DEFAULT_CONFIG

    @pytest.mark.parametrize("cfg, message", [
        ({"synthetic": 3}, "config: expected an object at synthetic."),
        ({"window": [5]}, "config: window must be a pair, got [5]"),
    ], ids=["section-not-an-object", "window-not-a-pair"])
    def test_malformed_config_exits_1_before_writing(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"nonsense": 1}))
        with pytest.raises(ValueError, match="unknown key"):
            load_config(str(path))

    def test_nested_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"optimizer": {"momentum": 0.9}}))
        with pytest.raises(ValueError, match="optimizer"):
            load_config(str(path))

    # Training always makes max_steps updates; the stop test on the gradient
    # norm is gone, and a file that still sets it is refused, not ignored.
    def test_retired_grad_tolerance_is_no_field(self):
        assert list(OptimizerConfig.__dataclass_fields__) == ["learning_rate", "max_steps", "mode"]
        assert list(load_config(None)["optimizer"]) == ["learning_rate", "max_steps", "mode"]
        with pytest.raises(TypeError, match="grad_tolerance"):
            OptimizerConfig(grad_tolerance=1e-6)

    def test_retired_grad_tolerance_in_a_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"optimizer": {"grad_tolerance": 1e-6}}))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "grad_tolerance" in err and "optimizer." in err
        assert not list(tmp_path.glob("out*"))

    def test_retired_grad_tolerance_in_a_stored_meta_exits_1(self, tmp_path, tiny_config, capsys):
        data = tmp_path / "data"
        assert main(["generate", "--config", tiny_config, "--out", str(data)]) == 0
        meta = json.loads((data / "meta.json").read_text())
        meta["optimizer"]["grad_tolerance"] = 1e-6
        (data / "meta.json").write_text(json.dumps(meta))
        save_kernel(tmp_path / "k.lcvk", identity_kernel(4))
        out = tmp_path / "m.json"
        assert main(["eval", "--checkpoint", str(tmp_path / "k.lcvk"), "--data", str(data),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "grad_tolerance" in err and "optimizer." in err
        assert not out.exists()

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_config(str(path))

    def test_values_of_the_defaults_types_are_accepted(self, tmp_path):
        # An integer passes where a float is the default; mixing and a seed
        # list take the types that their defaults do not show.
        cfg = {"optimizer": {"learning_rate": 1}, "perturb": {"gamma": 2, "noise_std": 0},
               "synthetic": {"mixing": [[1, 0.5], [0, 1]]}, "sweep": {"seeds": [4, 5], "gamma_grid": [1, 0.5]}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        loaded = load_config(str(path))
        assert loaded["optimizer"]["learning_rate"] == 1
        assert loaded["synthetic"]["mixing"] == [[1, 0.5], [0, 1]]
        assert loaded["sweep"]["seeds"] == [4, 5]
        path.write_text(json.dumps({"synthetic": {"mixing": None}, "sweep": {"seeds": 3}}))
        assert load_config(str(path))["synthetic"]["mixing"] is None

    # The cases that commands once accepted or failed on without naming the
    # key are run end to end in the next test.
    @pytest.mark.parametrize("path, value", [
        pytest.param("optimizer.learning_rate", 10**400, id="optimizer.learning_rate-beyond_floats"),
        ("optimizer.mode", 1),
        ("optimizer.max_steps", 5.0),
        ("perturb.gamma", [1.0]),
        ("synthetic.seed", None),
        ("synthetic.mixing", [1.0]),
        ("window", [5, "5"]),
        ("window", 5),
        ("instances", False),
        ("sweep.seeds", [1.0]),
    ])
    def test_value_of_another_type_names_its_key(self, tmp_path, path, value):
        *section, key = path.split(".")
        cfg = {section[0]: {key: value}} if section else {key: value}
        file = tmp_path / "c.json"
        file.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match=f"^config: {path} must be "):
            load_config(str(file))

    @pytest.mark.parametrize("command, path, value", [
        ("train", "optimizer.learning_rate", True),
        ("train", "optimizer.learning_rate", "x"),
        ("sweep", "sweep.patch_grid", [1.5]),
        ("sweep", "sweep.patch_grid", [True]),
        ("sweep", "sweep.noise_grid", [True]),
        ("sweep", "sweep.gamma_grid", ["a"]),
        ("sweep", "sweep.gamma_grid", 2),
        ("generate", "synthetic.mixing", [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        ("generate", "synthetic.mixing", {"a": 1}),
    ])
    def test_value_of_another_type_exits_1_before_writing(self, tmp_path, tiny_config, capsys,
                                                          command, path, value):
        cfg = json.loads(Path(tiny_config).read_text())
        section, key = path.split(".")
        cfg[section][key] = value
        file = tmp_path / "c.json"
        file.write_text(json.dumps(cfg))
        assert main([command, "--config", str(file), "--out", str(tmp_path / "out")]) == 1
        assert f"config: {path} must be " in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))


class TestGenerate:
    def test_writes_tensors_and_meta(self, tmp_path, tiny_config):
        out = tmp_path / "data"
        assert main(["generate", "--config", tiny_config, "--out", str(out)]) == 0
        f1 = read_tensor(out / "f1.lcvt")
        f2 = read_tensor(out / "f2.lcvt")
        flow = read_tensor(out / "flow.lcvt")
        assert f1.shape == (4, 12, 12)
        assert f2.shape == (4, 12, 12)
        assert flow.shape == (2, 12, 12)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["synthetic"]["seed"] == 3
        assert meta["window"] == [3, 3]

    def test_seed_override_changes_data(self, tmp_path, tiny_config):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["generate", "--config", tiny_config, "--out", str(a)])
        main(["generate", "--config", tiny_config, "--out", str(b), "--seed", "99"])
        main(["generate", "--config", tiny_config, "--out", str(c), "--seed", "99"])
        assert not np.array_equal(read_tensor(a / "f1.lcvt"), read_tensor(b / "f1.lcvt"))
        np.testing.assert_array_equal(read_tensor(b / "f1.lcvt"), read_tensor(c / "f1.lcvt"))
        assert json.loads((b / "meta.json").read_text())["synthetic"]["seed"] == 99

    def test_bad_config_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": True}))
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1

    def test_missing_config_exits_1(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["generate", "--config", missing, "--out", str(tmp_path / "x")]) == 1

    def test_ragged_mixing_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "ragged.json"
        cfg.write_text(json.dumps({"synthetic": {"signal_channels": 1, "noise_channels": 1,
                                                 "mixing": [[1, 2], [3]]}}))
        out = tmp_path / "x"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "synthetic.mixing" in err or "SyntheticSpec.mixing" in err
        assert not out.exists()

    def test_key_error_is_not_a_user_error(self, tmp_path, monkeypatch):
        # Every config key is filled from the defaults, so a KeyError is a bug
        # and must surface as one rather than as exit 1.
        def broken(spec):
            raise KeyError("bug")

        monkeypatch.setattr("lcv.cli.generate", broken)
        with pytest.raises(KeyError):
            main(["generate", "--out", str(tmp_path / "x")])

    def test_type_error_is_not_a_user_error(self, tmp_path, monkeypatch):
        # The config's types are checked as it is read, so a TypeError is a
        # bug and must surface as one rather than as exit 1.
        def broken(spec):
            raise TypeError("bug")

        monkeypatch.setattr("lcv.cli.generate", broken)
        with pytest.raises(TypeError):
            main(["generate", "--out", str(tmp_path / "x")])


class TestTrain:
    def test_writes_checkpoints_and_parseable_log(self, tmp_path, tiny_config):
        runs = []
        for name in ("run", "again"):
            prefix = tmp_path / name / "ck"
            assert main(["train", "--config", tiny_config, "--out", str(prefix)]) == 0
            lines = (tmp_path / name / "ck.log").read_text().splitlines()
            runs.append([StepRecord(**json.loads(line)) for line in lines])

        start = load_kernel(f"{prefix}.step0.lcvk")
        np.testing.assert_array_equal(start.W, np.eye(4))

        learned = load_kernel(f"{prefix}.lcvk")
        assert learned.dim == 4

        records = runs[0]
        assert [r.step for r in records] == list(range(len(records)))
        assert len(records) <= 5 + 1
        assert all(np.isfinite(r.loss) for r in records)
        # Everything but the wall time repeats exactly across runs.
        assert ([(r.step, r.loss, r.grad_norm) for r in runs[1]]
                == [(r.step, r.loss, r.grad_norm) for r in records])

    def test_deterministic_checkpoint(self, tmp_path, tiny_config):
        p1, p2 = tmp_path / "r1", tmp_path / "r2"
        main(["train", "--config", tiny_config, "--out", str(p1)])
        main(["train", "--config", tiny_config, "--out", str(p2)])
        assert (tmp_path / "r1.lcvk").read_bytes() == (tmp_path / "r2.lcvk").read_bytes()

    @pytest.mark.parametrize("window", [[3, 3], [4, 5], [5.5, 5]])
    def test_bad_window_exits_1_before_writing(self, tmp_path, capsys, window):
        # The default max_displacement of 2 needs at least a 5x5 window, and
        # a fractional size is refused rather than truncated.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"window": window}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "ck")]) == 1
        whole = all(isinstance(x, int) for x in window)
        assert ("cover" if whole else "window must be an integer") in capsys.readouterr().err
        assert not (tmp_path / "ck.step0.lcvk").exists()

    def test_fractional_instances_exits_1_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"instances": 2.7}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "ck")]) == 1
        assert "instances must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "ck.step0.lcvk").exists()

    @pytest.mark.parametrize("count", [-3, 0, 1])
    def test_too_few_instances_exits_1_before_writing(self, tmp_path, capsys, count):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"instances": count}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "ck")]) == 1
        assert f"error: instances must be at least 2, got {count}\n" in capsys.readouterr().err
        assert not (tmp_path / "ck.step0.lcvk").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("optimizer", "max_steps", 2.5),
        ("synthetic", "height", 12.0),
        ("synthetic", "width", 12.0),
        ("synthetic", "noise_channels", 2.0),
        ("synthetic", "max_displacement", 1.0),
    ])
    def test_fractional_count_exits_1_before_writing(self, tmp_path, tiny_config, capsys,
                                                     section, key, value):
        cfg = json.loads(Path(tiny_config).read_text())
        cfg[section][key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "ck")]) == 1
        assert f"config: {section}.{key} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "ck.step0.lcvk").exists()

    def test_numerical_blow_up_exits_2(self, tmp_path, tiny_config, capsys):
        cfg = json.loads(Path(tiny_config).read_text())
        cfg["optimizer"]["learning_rate"] = 1e30
        path = tmp_path / "blow_up.json"
        path.write_text(json.dumps(cfg))
        with np.errstate(all="ignore"):
            rc = main(["train", "--config", str(path), "--out", str(tmp_path / "ck")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerical error" in err
        assert "step 1" in err

    def test_integer_learning_rate_past_int64_is_a_number(self, tmp_path, tiny_config, capsys):
        # JSON integers have no size limit, and one past int64 must still be
        # checked and used as a number: this one overflows the first step.
        cfg = json.loads(Path(tiny_config).read_text())
        cfg["optimizer"]["learning_rate"] = 10**30
        path = tmp_path / "blow_up.json"
        path.write_text(json.dumps(cfg))
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(path), "--out", str(tmp_path / "ck")]) == 2
        assert "step 1" in capsys.readouterr().err


class TestEval:
    def test_scores_checkpoint_against_stored_data(self, tmp_path, tiny_config):
        data = tmp_path / "data"
        prefix = tmp_path / "ck"
        main(["generate", "--config", tiny_config, "--out", str(data)])
        main(["train", "--config", tiny_config, "--out", str(prefix)])
        out = tmp_path / "metrics.json"
        rc = main(["eval", "--checkpoint", f"{prefix}.lcvk",
                   "--data", str(data), "--out", str(out)])
        assert rc == 0
        metrics = json.loads(out.read_text())
        assert set(metrics) == {"aepe", "fl_all", "aepe_identity", "fl_identity"}
        for value in metrics.values():
            assert np.isfinite(value) and value >= 0

    def test_uses_meta_json_when_no_config_given(self, tmp_path, tiny_config):
        # meta.json pins the 3x3 window; a checkpoint trained at 4 channels
        # evaluates cleanly without repeating the config on the command line.
        data = tmp_path / "data"
        prefix = tmp_path / "ck"
        main(["generate", "--config", tiny_config, "--out", str(data)])
        main(["train", "--config", tiny_config, "--out", str(prefix)])
        out = tmp_path / "m.json"
        rc = main(["eval", "--checkpoint", f"{prefix}.step0.lcvk",
                   "--data", str(data), "--out", str(out)])
        assert rc == 0
        metrics = json.loads(out.read_text())
        assert metrics["aepe"] == metrics["aepe_identity"]

    def test_fractional_patch_radius_exits_1_before_writing(self, tmp_path, tiny_config, capsys):
        data = tmp_path / "data"
        main(["generate", "--config", tiny_config, "--out", str(data)])
        save_kernel(tmp_path / "k.lcvk", identity_kernel(4))
        cfg = json.loads(Path(tiny_config).read_text())
        cfg["perturb"]["patch_radius"] = 1.0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "m.json"
        assert main(["eval", "--checkpoint", str(tmp_path / "k.lcvk"), "--data", str(data),
                     "--out", str(out), "--config", str(path)]) == 1
        assert "config: perturb.patch_radius must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_scores_the_very_arrays_it_read(self, tmp_path, tiny_config, monkeypatch):
        # f1, the flow and the second frame, perturbed where it was read, are
        # adopted read-only rather than copied; the frame has the bits of
        # the public perturb of the stored one.
        data = tmp_path / "data"
        main(["generate", "--config", tiny_config, "--out", str(data)])
        save_kernel(tmp_path / "k.lcvk", identity_kernel(4))
        read, scored = {}, []

        def recording_read(path, _read=cli.read_tensor):
            read[Path(path).name] = _read(path)
            return read[Path(path).name]

        def recording_score(f1, f2, gt, *args, _score=cli.score_pair, **kwargs):
            scored.extend((f1, f2, gt))
            return _score(f1, f2, gt, *args, **kwargs)

        monkeypatch.setattr(cli, "read_tensor", recording_read)
        monkeypatch.setattr(cli, "score_pair", recording_score)
        assert main(["eval", "--checkpoint", str(tmp_path / "k.lcvk"), "--data", str(data),
                     "--out", str(tmp_path / "m.json")]) == 0
        for name, container in zip(("f1.lcvt", "f2.lcvt", "flow.lcvt"), scored):
            assert container.data is read[name]
            assert not container.data.flags.writeable and container.data.flags.owndata
        # Without ``--seed`` the perturbation seed is derived from the pair's seed, 3.
        seed = int(np.random.SeedSequence(3).generate_state(1)[0])
        want = perturb(FeatureMap(read_tensor(data / "f2.lcvt")), PerturbSpec(noise_std=0.05), seed=seed,
                       signal_channels=2)
        assert scored[1].data.tobytes() == want.data.tobytes()

    def test_default_noise_is_not_the_generation_stream(self, tmp_path, tiny_config, monkeypatch):
        # ``default_rng(3)`` drew the pair, its signal first.  Perturbing with
        # that stream adds 0.05 times those very draws to the signal channels,
        # which turns no signal vector.  ``--seed 3`` asks for it; the default
        # must not.
        data = tmp_path / "data"
        main(["generate", "--config", tiny_config, "--out", str(data)])
        save_kernel(tmp_path / "k.lcvk", identity_kernel(4))
        scored = []

        def recording_score(f1, f2, *args, _score=cli.score_pair, **kwargs):
            scored.append(f2.data)
            return _score(f1, f2, *args, **kwargs)

        monkeypatch.setattr(cli, "score_pair", recording_score)
        for extra in ([], ["--seed", "3"]):
            assert main(["eval", "--checkpoint", str(tmp_path / "k.lcvk"), "--data", str(data),
                         "--out", str(tmp_path / "m.json"), *extra]) == 0
        f2 = read_tensor(data / "f2.lcvt")
        replay = 0.05 * np.random.default_rng(3).standard_normal(f2[:2].shape)
        assert not np.allclose(scored[0][:2] - f2[:2], replay, rtol=1e-6, atol=1e-12)
        assert np.allclose(scored[1][:2] - f2[:2], replay, rtol=1e-6, atol=1e-12)
        want = perturb(FeatureMap(f2), PerturbSpec(noise_std=0.05), seed=3, signal_channels=2)
        assert scored[1].tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("frame", [
        pytest.param(lambda f: np.where(np.arange(f.size).reshape(f.shape) == 5, np.inf, f), id="inf"),
        pytest.param(lambda f: np.where(np.arange(f.size).reshape(f.shape) == 7, np.nan, f), id="nan"),
        pytest.param(lambda f: f[0], id="2-D"),
    ])
    def test_a_malformed_second_frame_exits_1_before_perturbing(self, tmp_path, tiny_config, capsys,
                                                                   frame):
        # Checked before the frame is perturbed in place: a gamma curve over
        # an infinity would warn, and a disc could paint over it.
        data = tmp_path / "data"
        main(["generate", "--config", tiny_config, "--out", str(data)])
        cfg = json.loads(Path(tiny_config).read_text())
        cfg["perturb"] = {"gamma": 0.5, "noise_std": 0.05, "patch_radius": 5}
        config = tmp_path / "c.json"
        config.write_text(json.dumps(cfg))
        write_tensor(data / "f2.lcvt", frame(read_tensor(data / "f2.lcvt")))
        save_kernel(tmp_path / "k.lcvk", identity_kernel(4))
        out = tmp_path / "m.json"
        assert main(["eval", "--checkpoint", str(tmp_path / "k.lcvk"), "--data", str(data),
                     "--out", str(out), "--config", str(config)]) == 1
        assert "FeatureMap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_a_pair_with_no_pixels_exits_1(self, tmp_path, tiny_config, capsys, gamma):
        # Its mean errors would be NaN, which is not JSON.
        data = tmp_path / "data"
        main(["generate", "--config", tiny_config, "--out", str(data)])
        for name, channels in (("f1.lcvt", 4), ("f2.lcvt", 4), ("flow.lcvt", 2)):
            write_tensor(data / name, np.zeros((channels, 0, 12)))
        cfg = json.loads(Path(tiny_config).read_text())
        cfg["perturb"]["gamma"] = gamma
        config = tmp_path / "c.json"
        config.write_text(json.dumps(cfg))
        save_kernel(tmp_path / "k.lcvk", identity_kernel(4))
        out = tmp_path / "m.json"
        assert main(["eval", "--checkpoint", str(tmp_path / "k.lcvk"), "--data", str(data),
                     "--out", str(out), "--config", str(config)]) == 1
        assert "(4, 0, 12) have no pixels" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_whose_w_fails_cholesky_exits_1(self, tmp_path, tiny_config, capsys):
        # c=64, half of lam at 1.05 eps: the spread rule accepts it, but the
        # rounded W has a negative eigenvalue (about -3 eps).
        c = 64
        lam = np.ones(c)
        lam[c // 2:] = 1.05 * np.finfo(float).eps
        s = 2.0 * np.random.default_rng(1).standard_normal(c * (c - 1) // 2)
        checkpoint = tmp_path / "k.lcvk"
        checkpoint.write_bytes(struct.pack("<4sBI", b"LCVK", 1, c)
                               + np.concatenate([s, t_from_lambda(lam).t]).astype("<f8").tobytes())
        data, out = tmp_path / "data", tmp_path / "m.json"
        main(["generate", "--config", tiny_config, "--out", str(data)])
        rc = main(["eval", "--checkpoint", str(checkpoint), "--data", str(data), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "k.lcvk" in err and "Cholesky" in err
        assert not out.exists()

    def test_missing_checkpoint_exits_1(self, tmp_path, tiny_config):
        data = tmp_path / "data"
        main(["generate", "--config", tiny_config, "--out", str(data)])
        rc = main(["eval", "--checkpoint", str(tmp_path / "none.lcvk"),
                   "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 1

    @pytest.mark.parametrize("name, header", [
        pytest.param("f1.lcvt", struct.pack("<4sBB3I", b"LCVT", 1, 3, 65536, 65536, 16), id="tensor"),
        pytest.param("id.lcvk", struct.pack("<4sBI", b"LCVK", 1, 2**32 - 1), id="checkpoint"),
        # Correctly sized checkpoints whose values assemble no kernel.
        pytest.param("id.lcvk", struct.pack("<4sBI6d", b"LCVK", 1, 3, 2.0**81, 2.0**81, 2.0**97, 0, 0, 0),
                     id="checkpoint-solve-fails"),
        pytest.param("id.lcvk", struct.pack("<4sBI3d", b"LCVK", 1, 2, 0, 1e300, 0), id="checkpoint-t-huge"),
        pytest.param("id.lcvk", struct.pack("<4sBI3d", b"LCVK", 1, 2, 0, -1e300, 0), id="checkpoint-t-tiny"),
        pytest.param("id.lcvk", struct.pack("<4sBI3d", b"LCVK", 1, 2, math.nan, 0, 0), id="checkpoint-nan"),
    ])
    def test_oversized_header_exits_1(self, tmp_path, tiny_config, capsys, name, header):
        data = tmp_path / "data"
        main(["generate", "--config", tiny_config, "--out", str(data)])
        checkpoint = tmp_path / "id.lcvk"
        save_kernel(checkpoint, identity_kernel(4))
        target = checkpoint if name == "id.lcvk" else data / name
        target.write_bytes(header)
        with np.errstate(all="ignore"):
            rc = main(["eval", "--checkpoint", str(checkpoint),
                       "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert name in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(malformed_inputs())
    def test_fuzzed_inputs_exit_1(self, stored_pair, case):
        name, data = case
        checkpoint, pair = stored_pair / "ck.lcvk", stored_pair / "data"
        if name == "fuzz.lcvk":
            checkpoint = stored_pair / name
            checkpoint.write_bytes(data)
        else:
            pair = stored_pair / "fuzzed"
            (pair / name).write_bytes(data)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main(["eval", "--checkpoint", str(checkpoint), "--data", str(pair),
                           "--out", str(stored_pair / "m.json")])
        finally:
            shutil.copy(stored_pair / "data" / "f1.lcvt", stored_pair / "fuzzed")
            shutil.copy(stored_pair / "data" / "flow.lcvt", stored_pair / "fuzzed")
        assert rc == 1
        assert name in err.getvalue()

    def test_missing_data_exits_1(self, tmp_path, tiny_config):
        prefix = tmp_path / "ck"
        main(["train", "--config", tiny_config, "--out", str(prefix)])
        rc = main(["eval", "--checkpoint", f"{prefix}.lcvk",
                   "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "m.json")])
        assert rc == 1

    def test_paper_scale_call_peaks_below_7_25_frames(self, tmp_path):
        # c=64, 64x64 frames under a 9x9 window, with gamma and noise.  A
        # warm call holds f1, the perturbed f2, the pair prepared for the
        # correlation and f1^T W at its peak, but not the unperturbed f2.
        cfg = {"synthetic": {"height": 64, "width": 64, "signal_channels": 8,
                             "noise_channels": 56, "max_displacement": 4},
               "perturb": {"gamma": 0.7, "noise_std": 0.1}, "window": [9, 9]}
        config = tmp_path / "paper.json"
        config.write_text(json.dumps(cfg))
        data = tmp_path / "data"
        save_kernel(tmp_path / "k.lcvk", identity_kernel(64))
        args = ["eval", "--checkpoint", str(tmp_path / "k.lcvk"), "--data", str(data),
                "--out", str(tmp_path / "m.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
            assert main(args) == 0
            tracemalloc.start()
            try:
                assert main(args) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        frame = 8 * 64 * 64 * 64
        assert peak <= 7.25 * frame

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap trimming")
    def test_a_warm_desk_call_faults_in_at_most_16_pages(self, tmp_path):
        # A fresh interpreter, so pytest's heap does not set the trim.  A
        # call that frees more than glibc's trim threshold hands its pages
        # back to the OS and faults them in again on the next call.
        script = f"""
import contextlib, io, json, resource, statistics
import numpy as np
from lcv import cli
from lcv.kernel import identity_kernel, save_kernel
root = {str(tmp_path)!r}
cfg = {{"synthetic": {{"height": 32, "width": 32, "signal_channels": 4, "noise_channels": 12,
                       "max_displacement": 2}}, "perturb": {{"noise_std": 0.1}}, "window": [5, 5]}}
with open(root + "/desk.json", "w") as fh:
    json.dump(cfg, fh)
save_kernel(root + "/k.lcvk", identity_kernel(16))
faults = []
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["generate", "--config", root + "/desk.json", "--out", root + "/data"]) == 0
    for j in range(23):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert cli.main(["eval", "--checkpoint", root + "/k.lcvk", "--data", root + "/data",
                         "--out", root + "/m.json", "--seed", str(j)]) == 0
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults[3:]))
"""
        pythonpath = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath)),
               "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True, timeout=120)
        assert float(done.stdout) <= 16


class TestSweep:
    def test_writes_reports(self, tmp_path, tiny_config):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", tiny_config, "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 3  # header + one row per grid point, one seed
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["groups"]) == 3

    def test_identical_invocations_are_bitwise_identical(self, tmp_path, tiny_config):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", tiny_config, "--out", str(a)])
        main(["sweep", "--config", tiny_config, "--out", str(b)])
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_integer_seed_count_expands_from_base_seed(self, tmp_path, tiny_config):
        cfg = json.loads(open(tiny_config).read())
        cfg["sweep"]["seeds"] = 2
        cfg["sweep"]["noise_grid"] = []
        cfg["sweep"]["patch_grid"] = []
        path = tmp_path / "c2.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()
        seeds = {row.split(",")[0] for row in rows[1:]}
        assert seeds == {"3", "4"}

    @pytest.mark.parametrize("seeds", [True, 2.5])
    def test_non_integer_seed_count_exits_1_before_writing(self, tmp_path, tiny_config,
                                                          capsys, seeds):
        cfg = json.loads(open(tiny_config).read())
        cfg["sweep"]["seeds"] = seeds
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert "sweep.seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", [0, -1, []], ids=["0", "-1", "empty"])
    def test_no_seeds_exits_1_before_writing(self, tmp_path, tiny_config, capsys, seeds):
        cfg = json.loads(open(tiny_config).read())
        cfg["sweep"]["seeds"] = seeds
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert "error: run_sweep: nothing to sweep over 0 seed(s) x 3 grid point(s)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", [-3, 0, 1])
    def test_too_few_instances_exits_1_before_writing(self, tmp_path, tiny_config, capsys, count):
        cfg = json.loads(open(tiny_config).read())
        cfg["instances"] = count
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert f"error: instances must be at least 2, got {count}\n" in capsys.readouterr().err
        assert not out.exists()


    def test_a_disc_too_large_exits_1_before_training(self, tmp_path, tiny_config, capsys,
                                                      monkeypatch):
        def trained(*args, **kwargs):
            pytest.fail("train_kernel was called")

        monkeypatch.setattr("lcv.harness.train_kernel", trained)
        cfg = json.loads(Path(tiny_config).read_text())
        cfg["sweep"]["patch_grid"] = [16]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert "disc of radius 16 does not fit a 12x12 frame" in capsys.readouterr().err
        assert not out.exists()

    def test_a_negative_seed_exits_1_before_training(self, tmp_path, tiny_config, capsys,
                                                     monkeypatch):
        def trained(*args, **kwargs):
            pytest.fail("train_kernel was called")

        monkeypatch.setattr("lcv.harness.train_kernel", trained)
        cfg = json.loads(Path(tiny_config).read_text())
        cfg["sweep"]["seeds"] = [0, 1, -1]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert "error: SyntheticSpec: seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("under", ["", "sub"], ids=["a_file", "under_a_file"])
    def test_an_out_that_cannot_be_a_directory_exits_1_before_training(
            self, tmp_path, tiny_config, capsys, monkeypatch, under):
        def trained(*args, **kwargs):
            pytest.fail("train_kernel was called")

        monkeypatch.setattr("lcv.harness.train_kernel", trained)
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker / under if under else blocker
        assert main(["sweep", "--config", tiny_config, "--out", str(out)]) == 1
        assert (f"error: sweep: --out {out} cannot be a directory: {blocker} is not one"
                in capsys.readouterr().err)
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    def test_all_grids_empty_exits_1_before_training(self, tmp_path, tiny_config, capsys,
                                                     monkeypatch):
        def trained(*args, **kwargs):
            pytest.fail("train_kernel was called")

        monkeypatch.setattr("lcv.harness.train_kernel", trained)
        cfg = json.loads(Path(tiny_config).read_text())
        cfg["sweep"].update(gamma_grid=[], noise_grid=[], patch_grid=[])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert "error: run_sweep: nothing to sweep over 1 seed(s) x 0 grid point(s)" in capsys.readouterr().err
        assert not out.exists()


class TestGradcheckCommand:
    def test_exits_zero_and_reports(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "40/40 passed" in out

    def test_impossible_tolerance_exits_2(self, capsys):
        assert main(["gradcheck", "--tolerance", "1e-18"]) == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("tolerance", ["nan", "0", "-1", "inf"])
    def test_malformed_tolerance_exits_1(self, capsys, tolerance):
        assert main(["gradcheck", "--tolerance", tolerance]) == 1
        assert "tolerance" in capsys.readouterr().err


class TestUsageErrors:
    # Exit 2 is kept for numerical failures, so a malformed command line
    # exits 1 like any other malformed input.
    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--eps", "-1e-5"],
        ["eval"],
        ["train", "--config"],
    ], ids=["exponent-form-negative-value", "required-options-missing", "option-without-value"])
    def test_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 1
        assert "usage: lcv" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("generate", {"--config", "--out", "--seed"}),
        ("train", {"--config", "--out", "--seed"}),
        ("eval", {"--checkpoint", "--config", "--data", "--out", "--seed"}),
        ("sweep", {"--config", "--out", "--seed"}),
        ("gradcheck", {"--eps", "--seed", "--tolerance"}),
    ])
    def test_help_lists_the_command_flags(self, capsys, command, flags):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        text = capsys.readouterr().out
        assert set(re.findall(r"--\w+", text)) == flags | {"--help"}
        if command == "train":
            assert "output path prefix" in text


REPO = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("generate", "train", "eval", "sweep", "gradcheck")

# What a console-script wrapper does: resolve the declared ``module:function``,
# call it with no arguments so that it reads ``sys.argv``, and hand its return
# value to ``sys.exit``.
WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
sys.argv[0] = {name!r}
sys.exit(EntryPoint({name!r}, {value!r}, "console_scripts").load()())
"""


def _assert_lists_subcommands(proc):
    assert proc.returncode == 0, proc.stderr
    for command in SUBCOMMANDS:
        assert command in proc.stdout


class TestEntryPoint:
    def test_console_script_is_installed(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with open(REPO / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "lcv" in scripts
        code = WRAPPER.format(name="lcv", value=scripts["lcv"])
        pythonpath = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
        proc = subprocess.run(
            [sys.executable, "-c", code, "--help"],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        _assert_lists_subcommands(proc)

    def test_console_script_builds_and_installs(self, tmp_path):
        # setuptools goes first: once pip is imported, its distutils shim
        # refuses a later setuptools import in the same process.
        pytest.importorskip("setuptools")
        try:
            import setuptools.command.bdist_wheel  # noqa: F401  (setuptools >= 70.1)
        except ImportError:
            pytest.importorskip("wheel")
        pytest.importorskip("pip")

        copy = tmp_path / "checkout"
        copy.mkdir()
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(REPO / name, copy / name)
        shutil.copytree(
            REPO / "src", copy / "src",
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
        prefix = tmp_path / "prefix"
        build = subprocess.run(
            [sys.executable, "-m", "pip", "install", "--no-deps", "--no-index",
             "--no-build-isolation", "--prefix", str(prefix), str(copy)],
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert build.returncode == 0, build.stdout + build.stderr

        # The install record names the generated executable, wherever the
        # platform's prefix scheme put it.
        dist_info = next(prefix.rglob("lcv-*.dist-info"))
        installed = importlib.metadata.PathDistribution(dist_info)
        exe = next(f.locate() for f in installed.files if f.stem == "lcv")
        env = {**os.environ, "PYTHONPATH": str(dist_info.parent)}
        proc = subprocess.run(
            [str(exe), "--help"], capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        _assert_lists_subcommands(proc)

    def test_unknown_command_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
