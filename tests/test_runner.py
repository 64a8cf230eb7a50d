import filecmp
import hashlib
import json
import multiprocessing
import os
import platform
import struct
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from natmu import BLAS_THREAD_VARIABLES, cli, data, nn, runner
from natmu.errors import (
    CategoryExhaustedError,
    ConfigError,
    DivergenceError,
    NatmuError,
    RetrainIsolationError,
    ValidationError,
)
from natmu.methods import METHODS, MethodParams
from natmu.nn import predict_logits

REPO = Path(__file__).resolve().parents[1]

MINI_CONFIG = """
[dataset]
kind = synth
k = 6
per_class = 25
test_per_class = 10
height = 5
width = 5
channels = 1
spread = 0.5

[pretrain]
epochs = 6
batch_size = 32
base_lr = 0.002
weight_decay = 0.0005
optimizer = adamw

[unlearn]
epochs = 2
batch_size = 32
base_lr = 0.003
weight_decay = 0.0005
optimizer = adamw

[forget]
mode = random
ratio = 0.1

[run]
seeds = 1,2
methods = retrain,amnesiac,natmu,badteacher,neggrad
output_dir = out

[method.natmu]
n = 3
delta = -0.05

[method.badteacher]
temperature = 2.0

[method.neggrad]
ascent_coefficient = 0.2
"""


@pytest.fixture()
def mini_config(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI_CONFIG)
    return runner.load_config(str(path))


class TestConfigParsing:
    def test_sections_parsed(self, mini_config):
        cfg = mini_config
        assert cfg.synth.k == 6
        assert cfg.synth.spread == 0.5
        assert cfg.pretrain.epochs == 6
        assert cfg.unlearn.base_lr == 0.003
        assert cfg.forget_mode == "random"
        assert cfg.seeds == (1, 2)
        assert cfg.methods == ("retrain", "amnesiac", "natmu", "badteacher",
                               "neggrad")
        assert cfg.method_params["natmu"].n == 3
        assert cfg.method_params["natmu"].delta == -0.05
        assert cfg.method_params["badteacher"].temperature == 2.0
        assert cfg.method_params["neggrad"].ascent_coefficient == 0.2

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            runner.load_config("/nonexistent/experiment.cfg")

    def test_unknown_method_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nmethods = retrain,ssd\n")
        with pytest.raises(ConfigError):
            runner.load_config(str(path))

    def test_defaults_without_sections(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("[run]\nmethods = retrain\n")
        cfg = runner.load_config(str(path))
        assert cfg.unlearn.epochs == 5  # reference run length
        assert cfg.synth.k == 10

    def test_partial_section_keeps_experiment_defaults(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("[unlearn]\nepochs = 2\n[pretrain]\nbase_lr = 0.01\n")
        cfg = runner.load_config(str(path))
        default = runner.ExperimentConfig()
        assert cfg.unlearn == replace(default.unlearn, epochs=2)
        assert cfg.pretrain == replace(default.pretrain, base_lr=0.01)

    UDS = "[dataset]\nkind = uds\ntrain_path = {train}\ntest_path = {test}\n"
    UNKNOWN = [  # (config text, the unknown name its error must give)
        ("[method.nattmu]\nn = 3\n", "nattmu"),
        ("[method.natmu]\ndetla = 0.5\n", "detla"),
        ("[pretrian]\nepochs = 3\n", "pretrian"),
        ("[dataset]\nkind = synth\nkk = 3\n", "kk"),
        ("[pretrain]\nepocs = 99\n", "epocs"),
        ("[unlearn]\nbase_rl = 0.1\n", "base_rl"),
        ("[forget]\nmode = class\nclas_index = 3\n", "clas_index"),
        ("[run]\noutdir = x\n", "outdir"),
        ("[pretrain]\nseed = 7\n", "seed"),  # seeds fan out from [run] seeds
        ("[dataset]\nkind = synth\ntrain_path = {train}\n", "train_path"),
        (UDS + "k = 3\n", "k"),
        ("[DEFAULT]\nepochs = 3\n", "DEFAULT"),
    ]

    @pytest.mark.parametrize("text, match", UNKNOWN, ids=[text for text, _ in UNKNOWN])
    def test_unknown_method_section_or_key_rejected(self, tmp_path, text, match):
        files = {}
        for split in ("train", "test"):
            files[split] = tmp_path / f"{split}.uds"
            data.save_raw(data.synth_blobs(3, 4, 2, 2, 1, seed=1, split=split), files[split])
        path = tmp_path / "bad.cfg"
        path.write_text(text.format(**files))
        with pytest.raises(ConfigError, match=match):
            runner.load_config(str(path))
        lines = text.format(**files).splitlines()
        known = [line for line in lines if not line.startswith(f"{match} =")]
        if len(known) < len(lines):  # without the unknown key the file loads
            path.write_text("\n".join(known))
            runner.load_config(str(path))

    @pytest.mark.parametrize("method, key, value", [
        ("retrain", "temperature", "7"), ("amnesiac", "n", "2"),
        ("badteacher", "ascent_coefficient", "0.5"), ("neggrad", "delta", "-0.1"),
        ("natmu", "temperature", "2.0")])
    def test_key_a_method_never_reads_refused(self, tmp_path, method, key, value):
        path = tmp_path / "unread.cfg"
        path.write_text(f"[run]\nmethods = {method}\n[method.{method}]\n"
                        f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"unknown keys: \[method.{method}\] {key}$"):
            runner.load_config(str(path))
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, match", [
        ("[pretrain]\nepochs = ten\n", "epochs = ten"),
        ("[method.natmu]\nshuffle_masks = maybe\n", "shuffle_masks = maybe"),
        ("[dataset]\nkind = csv\n", "unknown dataset kind 'csv'"),
        ("[dataset]\nkind = uds\ntrain_path = {missing}\ntest_path = {missing}\n",
         "dataset not found"),
        ("[pretrain]\nbase_lr = nan\n", "base_lr must be finite and > 0, got nan"),
        ("[unlearn]\nbase_lr = inf\n", "base_lr must be finite and > 0, got inf"),
        ("[pretrain]\nweight_decay = nan\n", "weight_decay must be >= 0, got nan"),
        ("[unlearn]\nweight_decay = -1\n", "weight_decay must be >= 0, got -1.0"),
        ("[run]\nmethods = badteacher\n[method.badteacher]\ntemperature = nan\n",
         "temperature must be finite and > 0, got nan"),
        ("[run]\nmethods = badteacher\n[method.badteacher]\ntemperature = inf\n",
         "temperature must be finite and > 0, got inf"),
        ("[run]\nmethods = neggrad\n[method.neggrad]\nascent_coefficient = nan\n",
         "ascent_coefficient must be >= 0, got nan"),
        ("[run]\nmethods = neggrad\n[method.neggrad]\nascent_coefficient = inf\n",
         "ascent_coefficient must be >= 0, got inf"),
        ("[dataset]\nspread = inf\n", "synth spread must be >= 0, got inf"),
        ("[dataset]\nwidth = 2\n[run]\nmethods = retrain,natmu\n",
         "[method.natmu] gradual mask width must be >= 3, got 2")])
    def test_bad_value_refused_by_run(self, tmp_path, capsys, text, match):
        path = tmp_path / "bad.cfg"
        path.write_text(text.format(missing=tmp_path / "missing.uds"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out-dir", str(out)]) == \
            cli.EXIT_VALIDATION
        assert match in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_words_read_as_booleans(self, tmp_path):
        path = tmp_path / "yes.cfg"
        path.write_text("[method.natmu]\nshuffle_masks = yes\n")
        assert runner.load_config(str(path)).params_for("natmu").shuffle_masks is True

    @pytest.mark.parametrize("key, value", [("seeds", (1, 2, 1)),
                                            ("methods", ("retrain", "natmu", "natmu"))])
    def test_duplicate_seeds_or_methods_rejected(self, tmp_path, key, value):
        path = tmp_path / "dup.cfg"
        path.write_text(f"[run]\n{key} = {','.join(map(str, value))}\n")
        with pytest.raises(ConfigError, match=f"distinct {key}"):
            runner.load_config(str(path))
        with pytest.raises(ConfigError, match=f"distinct {key}"):
            runner.ExperimentConfig(**{key: value}).validate()

    def test_method_params_of_unknown_method_rejected_in_code(self):
        config = runner.ExperimentConfig(method_params={"nattmu": MethodParams()})
        with pytest.raises(ConfigError, match="nattmu"):
            config.validate()

    def test_bad_forgetting_ratio_fails_before_any_training(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(runner, "pretrain_model", lambda *a, **k: calls.append(a))
        path = tmp_path / "difficult.cfg"
        path.write_text("[forget]\nmode = difficult\nratio = 1.5\n")
        with pytest.raises(ConfigError, match="ratio"):
            runner.load_config(str(path))
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
        assert calls == []

    @pytest.mark.parametrize("mode", ["random", "difficult"])
    @pytest.mark.parametrize("ratio, empty", [("0.0001", "forgetting"),
                                              ("0.9999", "remaining")])
    def test_ratio_leaving_a_set_empty_fails_before_any_training(self, tmp_path, monkeypatch,
                                                                 mode, ratio, empty):
        # desk defaults: N = 5000, so round(0.5) = 0 and round(4999.5) = 5000
        calls = []
        monkeypatch.setattr(runner, "pretrain_model", lambda *a, **k: calls.append(a))
        path = tmp_path / "empty.cfg"
        path.write_text(f"[forget]\nmode = {mode}\nratio = {ratio}\n")
        with pytest.raises(ConfigError, match=f"ratio {ratio} of N = 5000 .* {empty}"):
            runner.load_config(str(path))
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
        assert calls == []

    @pytest.mark.parametrize("command", ["run", "pretrain"])
    def test_uds_ratio_leaving_a_set_empty_fails_before_the_pretrain(self, tmp_path,
                                                                     monkeypatch, command):
        # over UDS files N is known only once they are read: 1% of 30 rounds to 0
        calls = []
        monkeypatch.setattr(runner, "pretrain_model", lambda *a, **k: calls.append(a))
        for split in ("train", "test"):
            data.save_raw(data.synth_blobs(3, 10, 4, 4, 1, seed=1, split=split),
                          str(tmp_path / f"{split}.uds"))
        path = tmp_path / "uds.cfg"
        path.write_text(f"[dataset]\nkind = uds\ntrain_path = {tmp_path / 'train.uds'}\n"
                        f"test_path = {tmp_path / 'test.uds'}\n"
                        "[forget]\nmode = difficult\nratio = 0.01\n")
        out, checkpoint = tmp_path / "out", tmp_path / "original.nmu"
        argv = {"run": ["--out-dir", str(out)], "pretrain": ["--out", str(checkpoint)]}
        assert cli.main([command, "--config", str(path), *argv[command]]) == \
            cli.EXIT_VALIDATION
        assert calls == [] and not checkpoint.exists()
        if command == "run":
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["status"].startswith("failed at seed1/dataset: forgetting ratio")
            assert "seed1/pretrain" not in manifest["wall_clock"]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_non_finite_uds_pixel_fails_before_the_pretrain(self, tmp_path, monkeypatch,
                                                            capsys, split, value):
        calls = []
        monkeypatch.setattr(runner, "pretrain_model", lambda *a, **k: calls.append(a))
        files = {name: tmp_path / f"{name}.uds" for name in ("train", "test")}
        for name, path in files.items():
            data.save_raw(data.synth_blobs(3, 10, 4, 4, 1, seed=1, split=name), str(path))
        blob = bytearray(files[split].read_bytes())
        at = 24 + 3 * (2 + 4 * 16) + 2 + 4 * 5  # row 3, pixel 5
        blob[at:at + 4] = np.array(value, dtype="<f4").tobytes()
        files[split].write_bytes(bytes(blob))
        path = tmp_path / "uds.cfg"
        path.write_text(f"[dataset]\nkind = uds\ntrain_path = {files['train']}\n"
                        f"test_path = {files['test']}\n")
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
        assert calls == []
        assert "not finite" in capsys.readouterr().err
        assert cli.main(["dataset", "inspect", str(files[split])]) == cli.EXIT_VALIDATION
        assert f"not finite in {files[split]}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("k", "1"), ("per_class", "0"), ("test_per_class", "0"), ("height", "0"),
        ("width", "0"), ("channels", "0"), ("spread", "-1")])
    def test_bad_synth_parameters_fail_before_any_data(self, tmp_path, monkeypatch,
                                                       key, value):
        calls = []
        monkeypatch.setattr(runner, "synth_blobs", lambda *a, **k: calls.append(a))
        path = tmp_path / "bad.cfg"
        path.write_text(f"[dataset]\nkind = synth\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"synth {key} must be"):
            runner.load_config(str(path))
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
        assert calls == []

    @pytest.mark.parametrize("dataset, n", [
        ("", "0"), ("", "10"),                           # K = 10
        ("k = 6\nsuperclass_map = 0,0,1,1,2,2\n", "3")])  # K = 3 superclasses
    def test_bad_natmu_n_fails_before_any_data(self, tmp_path, monkeypatch, dataset, n):
        calls = []
        monkeypatch.setattr(runner, "synth_blobs", lambda *a, **k: calls.append(a))
        path = tmp_path / "bad.cfg"
        path.write_text(f"[dataset]\n{dataset}[run]\nmethods = natmu\n"
                        f"[method.natmu]\nn = {n}\n")
        with pytest.raises(ConfigError, match=r"n (must be >= 1|= \d+ exceeds K-1)"):
            runner.load_config(str(path))
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
        assert calls == []

    @pytest.mark.parametrize("kind, dataset, forget, match", [
        ("synth", "k = 3\n", "class_index = -1", "class_index = -1 names no class"),
        ("synth", "k = 3\n", "class_index = 7", "class_index = 7 names no class"),
        ("synth", "k = 6\nsuperclass_map = 0,0,2,2,3,3\n", "class_index = 1",
         "class_index = 1 names no class"),  # no fine class maps to superclass 1
        ("synth", "k = 6\nsuperclass_map = 0,0,1,1,2,2\n", "class_index = 6\nscope = sub",
         "class_index = 6 names no class of the fine"),
        ("synth", "k = 3\n", "scope = sub", "scope = sub needs a \\[dataset\\] superclass_map"),
        ("uds", "", "scope = sub", "scope = sub needs a \\[dataset\\] superclass_map"),
        ("uds", "", "class_index = -1", "class_index = -1 names no class"),
        ("uds", "superclass_map = 0,0,1\n", "class_index = 3\nscope = sub",
         "class_index = 3 names no class of the fine")])
    def test_bad_class_mode_settings_fail_before_any_data(self, tmp_path, monkeypatch, kind,
                                                          dataset, forget, match):
        if kind == "uds":
            for split in ("train", "test"):
                data.save_raw(data.synth_blobs(3, 10, 4, 4, 1, seed=1, split=split),
                              str(tmp_path / f"{split}.uds"))
            dataset = (f"kind = uds\ntrain_path = {tmp_path / 'train.uds'}\n"
                       f"test_path = {tmp_path / 'test.uds'}\n{dataset}")
        calls = []
        monkeypatch.setattr(runner, "synth_blobs", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(runner, "load_raw", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(runner, "pretrain_model", lambda *a, **k: calls.append(a))
        path = tmp_path / "bad.cfg"
        path.write_text(f"[dataset]\n{dataset}[forget]\nmode = class\n{forget}\n"
                        "[run]\nmethods = retrain\n")
        with pytest.raises(ConfigError, match=match):
            runner.load_config(str(path))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(out)]) == cli.EXIT_VALIDATION
        assert calls == [] and not (out / "seed_1").exists()

    @pytest.mark.parametrize("params, match", [
        ("variant = bogus", "unknown variant 'bogus'"),
        ("mask_family = bogus", "unknown mask family 'bogus'"),
        ("delta = nan", "delta must be finite, got nan"),
        ("mask_family = cutmix-corner\ncutmix_edge = 99",
         r"cutmix_edge = 99 is outside \[0, 4\]"),
        ("mask_family = cutmix-corner\ncutmix_edge = -1",
         r"cutmix_edge = -1 is outside \[0, 4\]"),
        ("mask_family = gradual\ncutmix_edge = 3",
         "cutmix_edge = 3 needs mask family 'cutmix-corner'"),
        ("mask_family = constant\ncutmix_edge = 0", "'constant' takes no edge")])
    def test_bad_natmu_params_fail_before_any_data(self, tmp_path, monkeypatch, params, match):
        calls = []
        monkeypatch.setattr(runner, "synth_blobs", lambda *a, **k: calls.append(a))
        path = tmp_path / "bad.cfg"
        path.write_text("[dataset]\nk = 3\nheight = 4\nwidth = 4\nper_class = 20\n"
                        f"[run]\nmethods = retrain,natmu\n[method.natmu]\nn = 2\n{params}\n")
        with pytest.raises(ConfigError, match=match):
            runner.load_config(str(path))
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
        assert calls == []

    @pytest.mark.parametrize("width, params, match", [
        (3, "mask_family = cutmix-corner\ncutmix_edge = 4\n",
         "cutmix_edge = 4 is outside [0, 3]"),
        (2, "", "gradual mask width must be >= 3, got 2")],  # natmu's default family
        ids=["cutmix-edge-4", "gradual-width-2"])
    def test_cutmix_edge_past_the_uds_images_fails_before_the_pretrain(
            self, tmp_path, monkeypatch, capsys, width, params, match):
        calls = []
        monkeypatch.setattr(runner, "pretrain_model", lambda *a, **k: calls.append(a))
        for split in ("train", "test"):
            data.save_raw(data.synth_blobs(6, 10, 4, width, 1, seed=1, split=split),
                          str(tmp_path / f"{split}.uds"))
        path = tmp_path / "bad.cfg"
        path.write_text(f"[dataset]\nkind = uds\ntrain_path = {tmp_path / 'train.uds'}\n"
                        f"test_path = {tmp_path / 'test.uds'}\n[run]\nmethods = retrain,natmu\n"
                        f"[method.natmu]\n{params}")
        runner.load_config(str(path))  # the image size is known only once the files are read
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(out)]) == cli.EXIT_VALIDATION
        assert calls == []
        assert match in capsys.readouterr().err
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert status.startswith("failed at seed1/dataset: [method.natmu] "), status

    @pytest.mark.parametrize("superclass_map", [None, "0,0,1,1,2,2"])  # K = 6, K = 3
    def test_natmu_n_above_k_minus_1_over_uds_fails_before_the_pretrain(
            self, tmp_path, monkeypatch, superclass_map):
        calls = []
        monkeypatch.setattr(runner, "pretrain_model", lambda *a, **k: calls.append(a))
        for split in ("train", "test"):
            data.save_raw(data.synth_blobs(6, 10, 4, 4, 1, seed=1, split=split),
                          str(tmp_path / f"{split}.uds"))
        n = 6 if superclass_map is None else 3
        dataset = (f"kind = uds\ntrain_path = {tmp_path / 'train.uds'}\n"
                   f"test_path = {tmp_path / 'test.uds'}\n")
        if superclass_map is not None:
            dataset += f"superclass_map = {superclass_map}\n"
        path = tmp_path / "bad.cfg"
        path.write_text(f"[dataset]\n{dataset}[run]\nmethods = retrain,natmu\n"
                        f"[method.natmu]\nn = {n}\n")
        runner.load_config(str(path))  # K is known only once the files are read
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
        assert calls == []

    @pytest.mark.parametrize("kind, superclass_map, match", [
        ("synth", "-1,0,1,1", "superclass labels must be >= 0, got -1"),
        ("synth", "0,0,1", "3 entries for k = 4"),
        ("synth", "0,0,0,0", "classes must be >= 2, got 1"),
        ("uds", "-1,0,1,1", "superclass labels must be >= 0, got -1"),
        ("uds", "1,1,1,1", "classes must be >= 2, got 1")])
    def test_bad_superclass_map_fails_before_the_pretrain(self, tmp_path, monkeypatch,
                                                          kind, superclass_map, match):
        calls = []
        monkeypatch.setattr(runner, "pretrain_model", lambda *a, **k: calls.append(a))
        dataset = "k = 4\n"
        if kind == "uds":
            for split in ("train", "test"):
                data.save_raw(data.synth_blobs(4, 10, 4, 4, 1, seed=1, split=split),
                              str(tmp_path / f"{split}.uds"))
            dataset = (f"kind = uds\ntrain_path = {tmp_path / 'train.uds'}\n"
                       f"test_path = {tmp_path / 'test.uds'}\n")
        path = tmp_path / "bad.cfg"
        path.write_text(f"[dataset]\n{dataset}superclass_map = {superclass_map}\n"
                        "[forget]\nmode = class\nscope = sub\n[run]\nmethods = retrain\n")
        if kind == "synth":  # refused by the config check, before any data is made
            monkeypatch.setattr(runner, "synth_blobs", lambda *a, **k: calls.append(a))
            with pytest.raises(ConfigError, match=match):
                runner.load_config(str(path))
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
        assert calls == []

    @pytest.mark.parametrize("header", [(4, 0, 1, 2), (2, 2, 1, 1)])  # W = 0, K = 1
    def test_zero_size_or_one_class_uds_fails_at_the_dataset_stage(self, tmp_path,
                                                                    monkeypatch, header):
        calls = []
        monkeypatch.setattr(runner, "pretrain_model", lambda *a, **k: calls.append(a))
        height, width, channels, _ = header
        uds = tmp_path / "data.uds"
        uds.write_bytes(data.MAGIC + struct.pack("<IIIII", 20, *header)
                        + bytes(20 * (2 + 4 * height * width * channels)))
        path = tmp_path / "bad.cfg"
        path.write_text(f"[dataset]\nkind = uds\ntrain_path = {uds}\ntest_path = {uds}\n"
                        "[forget]\nratio = 0.1\n[run]\nmethods = retrain\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(out)]) == cli.EXIT_VALIDATION
        assert calls == [] and not (out / "seed_1").exists()
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert error == {"stage": "seed1/dataset", "type": "DatasetFormatError"}

    def test_readme_full_surface_block_loads(self, tmp_path):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        block = readme.split("The full surface:\n\n```\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "full.cfg"
        path.write_text(block)
        cfg = runner.load_config(str(path))  # `;` comments included
        assert cfg.synth.k == 10 and cfg.pretrain.optimizer == "adamw"
        assert cfg.forget_mode == "random" and cfg.params_for("natmu").mask_family == "gradual"

    def test_desk_config_is_the_default_experiment(self):
        # the defaults reproduce the calibrated desk setup: desk.cfg adds only
        # its [run] choices, and its method sections restate the defaults
        desk = runner.load_config(str(REPO / "configs" / "desk.cfg"))
        default = runner.ExperimentConfig()
        run_fields = {"seeds", "methods", "output_dir", "method_params"}
        for f in fields(runner.ExperimentConfig):
            if f.name not in run_fields:
                assert getattr(desk, f.name) == getattr(default, f.name), f.name
        for method in METHODS:
            assert desk.params_for(method) == default.params_for(method), method

    def test_hash_tracks_semantic_fields_only(self, mini_config):
        base = mini_config.hash()
        mini_config.output_dir = "elsewhere"
        assert mini_config.hash() == base
        mini_config.forget_ratio = 0.2
        assert mini_config.hash() != base

    def test_hash_sees_method_params(self, mini_config):
        base = mini_config.hash()
        mini_config.method_params["natmu"] = MethodParams(delta=0.1)
        assert mini_config.hash() != base


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg_path = out / "mini.cfg"
    cfg_path.write_text(MINI_CONFIG)
    config = runner.load_config(str(cfg_path))
    manifest = runner.run_experiment(config, out_dir=str(out / "results"))
    return config, manifest, out / "results"


class TestRunExperiment:
    def test_manifest_complete(self, finished_run):
        config, manifest, out = finished_run
        assert manifest["status"] == "complete"
        assert manifest["config_hash"] == config.hash()
        assert (out / "manifest.json").exists()
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["status"] == "complete"

    def test_manifest_carries_the_hashed_config(self, finished_run):
        _, _, out = finished_run
        manifest = json.loads((out / "manifest.json").read_text())
        blob = json.dumps(manifest["config"], sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == manifest["config_hash"]
        assert manifest["config"]["unlearn"]["base_lr"] == 0.003
        assert manifest["config"]["method_params"]["natmu"]["n"] == 3

    def test_report_files_exist_per_seed_and_method(self, finished_run):
        _, manifest, out = finished_run
        for seed in (1, 2):
            for method in ("retrain", "amnesiac", "natmu", "badteacher", "neggrad"):
                assert (out / f"seed_{seed}" / f"report_{method}.csv").exists()
            assert (out / f"seed_{seed}" / "curves.csv").exists()
        assert (out / "aggregate.csv").exists()
        for rel in manifest["files"]:
            assert (out / rel).exists()

    def test_retrain_report_gaps_zero(self, finished_run):
        _, _, out = finished_run
        for seed in (1, 2):
            rows = (out / f"seed_{seed}" / "report_retrain.csv").read_text().splitlines()
            for line in rows[1:]:
                name, _, _, gap = line.split(",")
                if gap:
                    assert float(gap) == 0.0, name

    def test_kl_blank_for_relabeling_free_methods(self, finished_run):
        _, _, out = finished_run
        rows = (out / "seed_1" / "report_neggrad.csv").read_text().splitlines()
        kl_row = [r for r in rows if r.startswith("KL_avg")][0]
        assert kl_row.split(",")[1] == ""
        nat_row = [r for r in (out / "seed_1" / "report_natmu.csv")
                   .read_text().splitlines() if r.startswith("KL_avg")][0]
        assert float(nat_row.split(",")[1]) >= 0.0

    def test_curves_have_rows_per_method_epoch(self, finished_run):
        _, _, out = finished_run
        rows = (out / "seed_1" / "curves.csv").read_text().splitlines()
        assert rows[0] == "method,epoch,fa,ra"
        methods_seen = {}
        for line in rows[1:]:
            method, epoch, fa, ra = line.split(",")
            methods_seen.setdefault(method, []).append(int(epoch))
            assert 0.0 <= float(fa) <= 100.0
            assert 0.0 <= float(ra) <= 100.0
        assert methods_seen["retrain"] == list(range(6))
        for method in ("amnesiac", "natmu", "badteacher", "neggrad"):
            assert methods_seen[method] == list(range(2))

    def test_aggregate_rows_formatted(self, finished_run):
        _, _, out = finished_run
        rows = (out / "aggregate.csv").read_text().splitlines()
        assert rows[0] == "method,metric,mean,std,gap_mean,formatted"
        natmu_ta = [r for r in rows if r.startswith("natmu,TA")][0]
        parts = natmu_ta.split(",")
        assert "±" in parts[5] and "(" in parts[5]

    def test_rerun_is_byte_identical(self, finished_run, tmp_path):
        config, _, out = finished_run
        again = tmp_path / "again"
        runner.run_experiment(config, out_dir=str(again))
        for csv in sorted(out.rglob("*.csv")):
            rel = csv.relative_to(out)
            assert filecmp.cmp(csv, again / rel, shallow=False), rel

    def test_output_dir_env_override(self, mini_config, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("OUTPUT_DIR", str(target))
        mini_config.seeds = (1,)
        mini_config.methods = ("retrain",)
        runner.run_experiment(mini_config)
        assert (target / "manifest.json").exists()


class TestFailureHandling:
    def test_partial_manifest_on_stage_failure(self, mini_config, tmp_path):
        mini_config.seeds = (1,)
        mini_config.methods = ("retrain", "natmu")
        # more categories than K-1 exist: over UDS files K is known only once the
        # data is read, so the dataset stage must fail, before any training
        s = mini_config.synth
        for split, per_class in (("train", s.per_class), ("test", s.test_per_class)):
            data.save_raw(data.synth_blobs(s.k, per_class, s.height, s.width, s.channels,
                                           s.spread, seed=1, split=split),
                          str(tmp_path / f"{split}.uds"))
        mini_config.synth = None
        mini_config.train_path = str(tmp_path / "train.uds")
        mini_config.test_path = str(tmp_path / "test.uds")
        mini_config.method_params["natmu"] = MethodParams(n=6)
        out = tmp_path / "fail"
        with pytest.raises(ValidationError):
            runner.run_experiment(mini_config, out_dir=str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"].startswith("failed at seed1/dataset")


    @pytest.mark.parametrize("failure, error", [("curve", "CurveFailure"),
                                                ("audit", "RetrainIsolationError")])
    def test_failure_records_the_stage_and_the_exception_class(self, tmp_path, monkeypatch,
                                                               capsys, failure, error):
        class CurveFailure(NatmuError):
            pass

        def failing_accuracy(model, dataset):
            raise CurveFailure("curve failed")

        def leaky_split(dataset, spec, counts=None):  # d_r keeps the forgetting ids
            return split(dataset, spec, counts)[0], dataset
        split = runner.split_forget
        if failure == "curve":
            monkeypatch.setattr(runner, "accuracy", failing_accuracy)
        else:
            monkeypatch.setattr(runner, "split_forget", leaky_split)
        (tmp_path / "mini.cfg").write_text(MINI_CONFIG.replace("seeds = 1,2", "seeds = 1"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(tmp_path / "mini.cfg"),
                         "--out-dir", str(out)]) == cli.EXIT_RUNTIME
        message = capsys.readouterr().err.removeprefix("runtime failure: ").rstrip("\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == f"failed at seed1/method:retrain: {message}"
        assert manifest["error"] == {"stage": "seed1/method:retrain", "type": error}

    def test_uds_test_set_without_the_forgetting_class_fails_before_any_training(
            self, tmp_path, monkeypatch):
        train_ds = data.synth_blobs(3, 20, 4, 4, 1, seed=1)
        test_ds = data.synth_blobs(3, 20, 4, 4, 1, seed=1, split="test")
        data.save_raw(train_ds, str(tmp_path / "train.uds"))
        data.save_raw(test_ds.subset(np.nonzero(test_ds.labels != 1)[0]),
                      str(tmp_path / "test.uds"))
        path = tmp_path / "bad.cfg"
        path.write_text(f"[dataset]\nkind = uds\ntrain_path = {tmp_path / 'train.uds'}\n"
                        f"test_path = {tmp_path / 'test.uds'}\n[pretrain]\nepochs = 1\n"
                        "[unlearn]\nepochs = 1\n[forget]\nmode = class\nclass_index = 1\n"
                        "[run]\nmethods = retrain,amnesiac,natmu\n[method.natmu]\nn = 1\n")
        calls = []
        for name in ("train", "submit"):  # the pretrain here, every other job through submit
            real = getattr(runner, name)
            monkeypatch.setattr(runner, name, lambda *a, real=real, **k:
                                calls.append(a) or real(*a, **k))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path),
                         "--out-dir", str(out)]) == cli.EXIT_VALIDATION
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed at seed1/forget: class 1 has no test instances"
        assert calls == [] and not (out / "seed_1").exists()
        # the stage commands make the same check at the same stage, before a
        # pretrain that is asked for its trace
        assert cli.main(["pretrain", "--config", str(path), "--out", str(tmp_path / "o.nmu"),
                         "--trace", str(tmp_path / "o.trace")]) == cli.EXIT_VALIDATION
        assert calls == [] and list(tmp_path.glob("o.*")) == []


def scenario_config(tmp_path, mode: str) -> runner.ExperimentConfig:
    """A one-seed mini config of five methods in forgetting mode `mode`."""
    text = MINI_CONFIG.replace("seeds = 1,2", "seeds = 1")
    if mode == "class":
        text = text.replace("mode = random\nratio = 0.1", "mode = class\nclass_index = 4\nscope = sub")
        text = text.replace("spread = 0.5", "spread = 0.5\nsuperclass_map = 0,0,1,1,2,2")
        text = text.replace("n = 3", "n = 2")  # superclasses leave K-1 = 2
    elif mode == "difficult":
        text = text.replace("mode = random", "mode = difficult")
    path = tmp_path / f"{mode}.cfg"
    path.write_text(text)
    return runner.load_config(str(path))


def leak_forgetting_ids(monkeypatch):
    """Make the split keep the forgetting ids in the remaining set."""
    split = runner.split_forget
    monkeypatch.setattr(runner, "split_forget", lambda dataset, spec, counts=None:
                        (split(dataset, spec, counts)[0], dataset))


class TestRetrainWorker:
    """Where the process may use two CPUs, `run` queues each seed's retrain
    and then its 1st, 3rd, ... unlearner on one worker process while the
    pretrain and the other unlearners train in-process, and collects the
    worker's jobs after those; on one CPU all train in-process. Each run
    here starts at most one worker process."""

    # unlearners natmu, neggrad, badteacher, amnesiac: natmu and badteacher
    # on the worker, and the retrain neither first nor last
    REORDERED = "natmu,neggrad,retrain,badteacher,amnesiac"

    @staticmethod
    def run(config, out, monkeypatch, cpus):
        monkeypatch.setattr(runner, "usable_cpus", lambda: cpus)
        try:
            return runner.run_experiment(config, out_dir=str(out))
        finally:
            assert multiprocessing.active_children() == []

    @staticmethod
    def failure(out):
        return json.loads((out / "manifest.json").read_text())["error"]

    @pytest.mark.parametrize("mode, methods", [
        ("random", None), ("class", None), ("difficult", None), ("random", REORDERED)])
    def test_one_and_two_cpus_write_identical_csvs(self, tmp_path, monkeypatch, mode, methods):
        config = scenario_config(tmp_path, mode)
        if methods is not None:
            config.methods = tuple(methods.split(","))
        unlearners = [method for method in config.methods if method != "retrain"]
        for cpus in (1, 2):
            manifest = self.run(config, tmp_path / f"cpus{cpus}", monkeypatch, cpus)
            assert manifest["status"] == "complete"
            environment = manifest["environment"]
            assert environment["retrain_worker"] == {1: "in-process", 2: "process"}[cpus]
            peak = environment["worker_peak_rss_mb"]
            assert peak is None if cpus == 1 else peak > 1
            # the timeline: one span per model, each slot training one model at a time
            jobs = manifest["jobs"]["1"]
            assert set(jobs) == {"pretrain", *config.methods}
            on_worker = {"retrain", *unlearners[0::2]} if cpus == 2 else set()
            slots = {model: job["slot"] for model, job in jobs.items()}
            assert slots == {model: "worker" if model in on_worker else "caller" for model in jobs}
            for slot in ("caller", "worker"):
                spans = sorted((job["start_s"], job["end_s"]) for job in jobs.values()
                               if job["slot"] == slot)
                assert all(0 <= start <= end for start, end in spans)
                assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
            assert all(job["cpu_s"] >= 0 for job in jobs.values())
        csvs = sorted(p.relative_to(tmp_path / "cpus1") for p in (tmp_path / "cpus1").rglob("*.csv"))
        assert len(csvs) == 7  # five reports, curves, aggregate
        for rel in csvs:
            assert filecmp.cmp(tmp_path / "cpus1" / rel, tmp_path / "cpus2" / rel,
                               shallow=False), rel
        manifests = [json.loads((tmp_path / f"cpus{c}" / "manifest.json").read_text())
                     for c in (1, 2)]
        assert manifests[0]["retrain_audit"] == manifests[1]["retrain_audit"]
        assert list(manifests[1]["stage_seeds"]["1"]) == list(manifests[0]["stage_seeds"]["1"])

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_leaky_split_fails_at_the_retrain(self, tmp_path, monkeypatch, cpus):
        leak_forgetting_ids(monkeypatch)
        with pytest.raises(RetrainIsolationError):
            self.run(scenario_config(tmp_path, "random"), tmp_path / "out", monkeypatch, cpus)
        assert self.failure(tmp_path / "out") == {"stage": "seed1/method:retrain",
                                                  "type": "RetrainIsolationError"}

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_failed_pretrain_is_reported_before_a_failed_retrain(self, tmp_path, monkeypatch,
                                                                   cpus):
        leak_forgetting_ids(monkeypatch)
        # with a worker the pretrain fails once the retrain is under way
        retraining, submit = threading.Event(), runner.submit

        def started_retrain(*args, **kwargs):  # the seed's first job is the retrain's
            retraining.set()
            return submit(*args, **kwargs)

        def diverging_pretrain(*args, **kwargs):
            assert cpus == 1 or retraining.wait(30)
            raise DivergenceError("non-finite training loss at epoch 0")
        monkeypatch.setattr(runner, "submit", started_retrain)
        monkeypatch.setattr(runner, "pretrain_model", diverging_pretrain)
        with pytest.raises(DivergenceError):
            self.run(scenario_config(tmp_path, "random"), tmp_path / "out", monkeypatch, cpus)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed at seed1/pretrain: non-finite training loss at epoch 0"
        assert manifest["error"] == {"stage": "seed1/pretrain", "type": "DivergenceError"}

    @staticmethod
    def diverging_neggrad(config):
        """`config` with NegGrad+ diverging within its first epoch: alpha
        times the forgetting gradient overflows to inf."""
        config.method_params["neggrad"] = MethodParams(ascent_coefficient=1e308)
        return config

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_worker_lane_method_fails_at_its_own_stage(self, tmp_path, monkeypatch, cpus):
        config = self.diverging_neggrad(scenario_config(tmp_path, "random"))
        config.methods = ("retrain", "neggrad", "natmu")  # neggrad on the worker
        with pytest.raises(DivergenceError) as info:
            self.run(config, tmp_path / "out", monkeypatch, cpus)
        assert type(info.value) is DivergenceError
        assert self.failure(tmp_path / "out") == {"stage": "seed1/method:neggrad",
                                                  "type": "DivergenceError"}

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("methods, first", [
        # the worker's method fails after the one beside it, which fails at once
        (("retrain", "neggrad", "amnesiac"), "neggrad"),
        (("retrain", "amnesiac", "neggrad"), "amnesiac"),
        # two jobs queue on the worker: the 3rd (NegGrad+) fails after the 4th,
        # which fails at once here
        (("retrain", "amnesiac", "natmu", "neggrad", "badteacher"), "neggrad")])
    def test_the_earlier_of_two_failed_methods_is_reported(self, tmp_path, monkeypatch, cpus,
                                                          methods, first):
        config = self.diverging_neggrad(scenario_config(tmp_path, "random"))
        config.methods = methods
        at_once = "badteacher" if "badteacher" in methods else "amnesiac"

        def failing_at_once(request, pending=None):
            raise CategoryExhaustedError("relabeling failed")
        monkeypatch.setitem(runner.UNLEARN_METHODS, at_once, failing_at_once)
        error = {"neggrad": DivergenceError, "amnesiac": CategoryExhaustedError}[first]
        with pytest.raises(error):
            self.run(config, tmp_path / "out", monkeypatch, cpus)
        assert self.failure(tmp_path / "out") == {"stage": f"seed1/method:{first}",
                                                  "type": error.__name__}

    @pytest.mark.parametrize("mode", ["random", "difficult"])
    def test_every_model_trains_and_is_evaluated_on_the_calling_thread(self, tmp_path,
                                                                       monkeypatch, mode):
        """No second thread: the pretrain (in difficult mode with its trace
        pass), the methods kept here and every curve row and report run
        where `run` was called."""
        calls = []

        def on_thread(name, function):
            def traced(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return function(*args, **kwargs)
            return traced
        monkeypatch.setattr(nn, "_train_in_place", on_thread("train", nn._train_in_place))
        predict = on_thread("predict", nn.predict_logits)
        for name, module in list(sys.modules.items()):
            if name.startswith("natmu") and vars(module).get("predict_logits") is predict_logits:
                monkeypatch.setattr(module, "predict_logits", predict)
        manifest = self.run(scenario_config(tmp_path, mode), tmp_path / "out",
                            monkeypatch, 2)
        assert manifest["environment"]["retrain_worker"] == "process"
        assert {name for name, _ in calls} == {"train", "predict"}
        assert {thread for _, thread in calls} == {threading.get_ident()}

    @pytest.mark.parametrize("failure", ["pretrain", "method"])
    def test_a_failure_beside_a_worker_job_leaves_no_file(self, tmp_path, monkeypatch,
                                                          failure):
        """A pretrain that fails while the retrain trains on the worker, and
        a method here that fails beside a worker-side one: the worker's
        temporary files are removed and its process is stopped."""
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        config = scenario_config(tmp_path, "random")
        if failure == "pretrain":
            # a retrain of about a second here; the pretrain fails halfway, once
            # the worker has loaded the job and before it writes the result
            config.pretrain = replace(config.pretrain, epochs=1000)

            def diverging_pretrain(*args, **kwargs):
                time.sleep(0.5)
                raise DivergenceError("non-finite training loss at epoch 0")
            monkeypatch.setattr(runner, "pretrain_model", diverging_pretrain)
            stage = "seed1/pretrain"
        else:
            config = self.diverging_neggrad(config)
            config.methods = ("retrain", "amnesiac", "neggrad")  # amnesiac on the worker
            stage = "seed1/method:neggrad"
        with pytest.raises(DivergenceError):
            self.run(config, tmp_path / "out", monkeypatch, 2)  # checks no child is left
        assert self.failure(tmp_path / "out") == {"stage": stage, "type": "DivergenceError"}
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_a_failure_here_drops_the_worker_jobs_after_it(self, tmp_path, monkeypatch):
        """NegGrad+ (the 1st unlearner) and natmu (the 3rd) queue on the
        worker as 10000-epoch jobs, and amnesiac (the 2nd) fails here at
        once. NegGrad+ diverges in its first epoch and natmu, after the
        failure, is dropped before it starts: the run ends well under one
        such job, and leaves no child process and no temporary file."""
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        config = self.diverging_neggrad(scenario_config(tmp_path, "random"))
        config.methods = ("retrain", "neggrad", "amnesiac", "natmu")
        config.unlearn = replace(config.unlearn, epochs=10_000)  # natmu: about 7 s here

        def failing_amnesiac(request, pending=None):
            raise CategoryExhaustedError("relabeling failed")
        monkeypatch.setitem(runner.UNLEARN_METHODS, "amnesiac", failing_amnesiac)
        start = time.monotonic()
        with pytest.raises(DivergenceError):
            self.run(config, tmp_path / "out", monkeypatch, 2)  # checks no child is left
        assert time.monotonic() - start < 2.5
        assert self.failure(tmp_path / "out") == {"stage": "seed1/method:neggrad",
                                                  "type": "DivergenceError"}
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_an_amnesiac_job_file_holds_the_remaining_set_once(self, tmp_path, monkeypatch):
        """The worker-side amnesiac job carries the remaining set in its
        joined training set and in its curve rows' splits; its file holds
        the pixels once (desk's data, one epoch each)."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        config = runner.load_config(str(REPO / "configs" / "desk.cfg"))
        config.seeds, config.methods = (1,), ("retrain", "amnesiac")  # amnesiac on the worker
        config.pretrain = replace(config.pretrain, epochs=1)
        config.unlearn = replace(config.unlearn, epochs=1)
        sizes, submit = {}, runner.submit

        def measured(job, worker=None):
            pending = submit(job, worker)
            if pending.directory is not None:
                sizes[job.epoch_callback.method] = os.path.getsize(
                    os.path.join(pending.directory, "job.pickle"))
            return pending
        monkeypatch.setattr(runner, "submit", measured)
        assert self.run(config, tmp_path / "out", monkeypatch, 2)["status"] == "complete"
        d_r = runner.prepare_seed(config, 1).d_r
        assert set(sizes) == {"retrain", "amnesiac"}
        assert sizes["amnesiac"] < 1.1 * d_r.pixels.nbytes, (sizes, d_r.pixels.nbytes)

    def test_the_worker_peak_is_the_run_workers_own(self, tmp_path, monkeypatch):
        """Not the largest peak of any child this process has waited for: a
        child that touched 300 MB between two runs leaves the second alone."""
        config = scenario_config(tmp_path, "random")
        config.methods = ("retrain",)
        peaks = [self.run(config, tmp_path / "first", monkeypatch, 2)]
        subprocess.run([sys.executable, "-c", "b'x' * (300 << 20)"], check=True)
        peaks.append(self.run(config, tmp_path / "second", monkeypatch, 2))
        peaks = [manifest["environment"]["worker_peak_rss_mb"] for manifest in peaks]
        assert all(1 < peak < 300 for peak in peaks), peaks

    def test_a_script_without_the_main_guard_names_it(self, tmp_path):
        """The spawned worker imports the script, whose run starts a worker
        of its own; that fails in the worker, which dies before any task."""
        (tmp_path / "tiny.cfg").write_text(MINI_CONFIG.replace("seeds = 1,2", "seeds = 1"))
        (tmp_path / "script.py").write_text(
            "from natmu import runner\n"
            "runner.usable_cpus = lambda: 2  # a worker, whatever the host\n"
            "config = runner.load_config('tiny.cfg')\n"
            "runner.run_experiment(config, out_dir='out')\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        result = subprocess.run([sys.executable, "script.py"], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert "natmu.errors.WorkerDiedError" in result.stderr
        assert 'if __name__ == "__main__":' in result.stderr
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["error"] == {"stage": "seed1/method:retrain", "type": "WorkerDiedError"}
        assert 'if __name__ == "__main__":' in manifest["status"]


class TestScenarioModes:
    def test_class_wise_run_reports_fa_splits(self, tmp_path):
        cfg_text = MINI_CONFIG.replace(
            "mode = random\nratio = 0.1",
            "mode = class\nclass_index = 4\nscope = sub")
        cfg_text = cfg_text.replace(
            "spread = 0.5", "spread = 0.5\nsuperclass_map = 0,0,1,1,2,2")
        cfg_text = cfg_text.replace(
            "methods = retrain,amnesiac,natmu,badteacher,neggrad",
            "methods = retrain,natmu")
        cfg_text = cfg_text.replace("n = 3", "n = 2")  # superclasses leave K-1 = 2
        path = tmp_path / "classwise.cfg"
        path.write_text(cfg_text)
        config = runner.load_config(str(path))
        config.seeds = (1,)
        out = tmp_path / "out"
        manifest = runner.run_experiment(config, out_dir=str(out))
        assert manifest["status"] == "complete"
        rows = (out / "seed_1" / "report_natmu.csv").read_text().splitlines()
        names = [r.split(",")[0] for r in rows[1:]]
        assert names == ["TA", "RA", "FATrain", "FATest", "MIA", "KL_avg",
                         "Avg.Gap"]
        aggregate = (out / "aggregate.csv").read_text().splitlines()
        assert [r.split(",")[1] for r in aggregate if r.startswith("natmu,")] == names

    def test_difficult_mode_uses_pretraining_trace(self, tmp_path):
        cfg_text = MINI_CONFIG.replace("mode = random", "mode = difficult")
        cfg_text = cfg_text.replace(
            "methods = retrain,amnesiac,natmu,badteacher,neggrad",
            "methods = retrain,amnesiac")
        path = tmp_path / "difficult.cfg"
        path.write_text(cfg_text)
        config = runner.load_config(str(path))
        config.seeds = (1,)
        out = tmp_path / "out"
        manifest = runner.run_experiment(config, out_dir=str(out))
        assert manifest["status"] == "complete"
        assert (out / "seed_1" / "report_amnesiac.csv").exists()


class TestPretrainTrace:
    def test_trace_counts_bounded_by_epochs(self, mini_config):
        train_ds, _ = runner.materialize_data(mini_config, data_seed=5)
        model, counts = runner.pretrain_model(mini_config, train_ds, 1, with_trace=True)
        epochs = mini_config.pretrain.epochs
        assert counts.dtype == np.uint32 and counts.shape == (len(train_ds),)
        assert (counts <= epochs).all()
        # the last epoch's verdict, the final model's, is part of every count
        right = predict_logits(model, train_ds.pixels).argmax(axis=1) == train_ds.labels
        assert right.any() and (counts[right] >= 1).all()
        assert (counts[~right] <= epochs - 1).all()
        # counting leaves training as it is
        untraced, none = runner.pretrain_model(mini_config, train_ds, 1)
        assert none is None and np.array_equal(untraced.flat, model.flat)


class TestEvaluateModel:
    def test_class_wise_reports_carry_fa_splits(self, mini_config):
        from natmu import data, metrics, nn
        from natmu.methods import default_dims
        config = mini_config
        config.forget_mode = "class"
        config.forget_class = 2
        train_ds, test_ds = runner.materialize_data(config, data_seed=5)
        spec = data.ForgettingSpec(mode="class", class_index=2)
        d_f, d_r = data.split_forget(train_ds, spec)
        model = nn.init_model(default_dims(train_ds.dim, train_ds.k), seed=1)
        report = runner.evaluate_model(model, d_r, d_f, test_ds, spec)
        assert report["FATrain"] == metrics.accuracy(model, d_f)
        assert report["FATest"] is not None
        assert list(report) == ["TA", "RA", "FATrain", "FATest", "MIA"]


class TestBlasThreadRecord:
    @pytest.mark.parametrize("imports, recorded", [
        ("import numpy; from natmu import runner", None),   # BLAS read them unset
        ("from natmu import runner; import numpy", "1")])   # natmu's defaults
    def test_manifest_records_what_blas_read(self, tmp_path, imports, recorded):
        cfg = MINI_CONFIG.replace("seeds = 1,2", "seeds = 1").replace(
            "methods = retrain,amnesiac,natmu,badteacher,neggrad", "methods = retrain")
        (tmp_path / "mini.cfg").write_text(cfg)
        env = {name: value for name, value in os.environ.items()
               if name not in BLAS_THREAD_VARIABLES}
        env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"),
                                             os.environ.get("PYTHONPATH", "")])
        subprocess.run([sys.executable, "-c", f"{imports}; runner.run_experiment("
                        f"runner.load_config('mini.cfg'), 'out')"],
                       cwd=tmp_path, env=env, check=True, capture_output=True)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["environment"]["blas_threads"] == dict.fromkeys(
            BLAS_THREAD_VARIABLES, recorded)


class TestEnvironmentRecord:
    def test_manifest_records_the_live_environment(self, tmp_path):
        cfg = MINI_CONFIG.replace("seeds = 1,2", "seeds = 1").replace(
            "methods = retrain,amnesiac,natmu,badteacher,neggrad", "methods = retrain")
        (tmp_path / "mini.cfg").write_text(cfg)
        env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARIABLES, "2")}
        env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"),
                                             os.environ.get("PYTHONPATH", "")])
        subprocess.run([sys.executable, "-m", "natmu.cli", "run", "--config", "mini.cfg",
                        "--out-dir", "out"], cwd=tmp_path, env=env, check=True,
                       capture_output=True)
        environment = json.loads((tmp_path / "out" / "manifest.json").read_text())["environment"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        core = runner.openblas_core()
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        worker_peak = environment["worker_peak_rss_mb"]  # the worker's, in MB; null in-process
        assert (worker_peak is None) == (cpus < 2) and (worker_peak is None or worker_peak > 1)
        assert environment == {
            "blas_threads": dict.fromkeys(BLAS_THREAD_VARIABLES, "2"),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "openblas_core": core, "openblas_threads": None if core is None else min(2, cpus),
            "retrain_worker": "process" if cpus >= 2 else "in-process",
            "worker_peak_rss_mb": worker_peak}

    def test_missing_symbols_and_old_numpy_record_null(self, tmp_path, monkeypatch):
        import _ctypes
        # a numpy whose bundled "OpenBLAS" lacks the symbols, and whose
        # show_config predates mode="dicts"
        (tmp_path / "numpy").mkdir()
        (tmp_path / "numpy.libs").mkdir()
        (tmp_path / "numpy.libs" / "libscipy_openblas64_.so").symlink_to(_ctypes.__file__)
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        monkeypatch.setattr(np, "show_config", lambda: None)
        environment = runner.run_environment()
        assert environment["blas"] is environment["openblas_core"] is None
        assert environment["openblas_threads"] is None


class TestBlasThreads:
    """One config run, and its pretrain with the trace written, at natmu's
    default of one BLAS thread and at two."""

    @pytest.fixture(scope="class")
    def outs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("blas")
        # desk-sized layers, so BLAS has work to split across threads
        cfg = MINI_CONFIG.replace("k = 6", "k = 10").replace("per_class = 25", "per_class = 40")
        cfg = cfg.replace("height = 5", "height = 16").replace("width = 5", "width = 16")
        cfg = cfg.replace("seeds = 1,2", "seeds = 1")
        (tmp_path / "blas.cfg").write_text(cfg)
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = {}
        # unset, natmu pins one thread; a count the environment sets wins
        for threads in ("unset", "2"):
            env = {name: value for name, value in os.environ.items()
                   if name not in BLAS_THREAD_VARIABLES}
            if threads != "unset":
                env.update(dict.fromkeys(BLAS_THREAD_VARIABLES, threads))
            env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
            outs[threads] = out = tmp_path / f"threads_{threads}"
            for command in (["run", "--out-dir", str(out)],
                            ["pretrain", "--out", str(out / "original.nmu"),
                             "--trace", str(out / "original.trace.json")]):
                subprocess.run([sys.executable, "-m", "natmu.cli", *command, "--config",
                                str(tmp_path / "blas.cfg")],
                               env=env, check=True, capture_output=True)
        return outs

    def test_csvs_identical_across_blas_thread_counts(self, outs):
        for threads in ("unset", "2"):
            manifest = json.loads((outs[threads] / "manifest.json").read_text())
            assert manifest["environment"]["blas_threads"] == dict.fromkeys(
                BLAS_THREAD_VARIABLES, "1" if threads == "unset" else threads)
        csvs = sorted(p.relative_to(outs["2"]) for p in outs["2"].rglob("*.csv"))
        assert len(csvs) == 7  # five reports, curves, aggregate
        for rel in csvs:
            assert filecmp.cmp(outs["unset"] / rel, outs["2"] / rel, shallow=False), rel

    def test_checkpoint_and_trace_identical_across_blas_thread_counts(self, outs):
        for name in ("original.nmu", "original.trace.json"):
            assert (outs["unset"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name

    def test_two_thread_run_ran_two_openblas_threads(self, outs):
        environment = json.loads((outs["2"] / "manifest.json").read_text())["environment"]
        if environment["openblas_threads"] is None:
            pytest.skip("numpy's BLAS has no scipy_openblas_get_num_threads64_ to read "
                        "the live thread count from")
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if cpus < 2:
            pytest.skip(f"OpenBLAS caps its threads at the {cpus} CPU this process may use")
        assert environment["openblas_threads"] == 2
