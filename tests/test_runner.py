import filecmp
import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from natmu import BLAS_THREAD_VARIABLES, cli, data, runner
from natmu.errors import ConfigError, NatmuError, ValidationError
from natmu.methods import METHOD_NAMES, MethodParams
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

    @pytest.mark.parametrize("text, match", [
        ("[pretrain]\nepochs = ten\n", "epochs = ten"),
        ("[method.natmu]\nshuffle_masks = maybe\n", "shuffle_masks = maybe"),
        ("[dataset]\nkind = csv\n", "unknown dataset kind 'csv'"),
        ("[dataset]\nkind = uds\ntrain_path = {missing}\ntest_path = {missing}\n",
         "dataset not found")])
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
        for method in METHOD_NAMES:
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
        # data is read, so the build stage must fail
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
        assert manifest["status"].startswith("failed at seed1/method:natmu")


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
        assert environment == {
            "blas_threads": dict.fromkeys(BLAS_THREAD_VARIABLES, "2"),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "openblas_core": core, "openblas_threads": None if core is None else min(2, cpus)}

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
    def test_csvs_identical_across_blas_thread_counts(self, tmp_path):
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
            outs[threads] = tmp_path / f"threads_{threads}"
            subprocess.run([sys.executable, "-m", "natmu.cli", "run", "--config",
                            str(tmp_path / "blas.cfg"), "--out-dir", str(outs[threads])],
                           env=env, check=True, capture_output=True)
            manifest = json.loads((outs[threads] / "manifest.json").read_text())
            assert manifest["environment"]["blas_threads"] == dict.fromkeys(
                BLAS_THREAD_VARIABLES, "1" if threads == "unset" else threads)
        csvs = sorted(p.relative_to(outs["2"]) for p in outs["2"].rglob("*.csv"))
        assert len(csvs) == 7  # five reports, curves, aggregate
        for rel in csvs:
            assert filecmp.cmp(outs["unset"] / rel, outs["2"] / rel, shallow=False), rel
