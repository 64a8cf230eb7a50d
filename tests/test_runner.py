import filecmp
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from natmu import runner
from natmu.errors import ConfigError, ValidationError
from natmu.methods import MethodParams

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

    @pytest.mark.parametrize("text", ["[method.nattmu]\nn = 3\n",
                                      "[method.natmu]\ndetla = 0.5\n"])
    def test_unknown_method_section_or_key_rejected(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError):
            runner.load_config(str(path))

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
        # more categories than K-1 exist: the build stage must fail
        mini_config.method_params["natmu"] = MethodParams(n=6)
        out = tmp_path / "fail"
        with pytest.raises(ValidationError):
            runner.run_experiment(mini_config, out_dir=str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"].startswith("failed at seed1/method:natmu")


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


class TestEvaluateModel:
    def test_class_wise_reports_carry_fa_splits(self, mini_config):
        from natmu import data, nn
        from natmu.methods import default_dims
        config = mini_config
        config.forget_mode = "class"
        config.forget_class = 2
        train_ds, test_ds = runner.materialize_data(config, data_seed=5)
        spec = data.ForgettingSpec(mode="class", class_index=2)
        d_f, d_r = data.split_forget(train_ds, spec)
        model = nn.init_model(default_dims(train_ds.dim, train_ds.k), seed=1)
        report = runner.evaluate_model(model, d_r, d_f, test_ds, spec, kl=0.0)
        assert report.fa_train == report.fa
        assert report.fa_test is not None
        assert [name for name, _ in report.gap_metrics()] == \
            ["TA", "RA", "FATrain", "FATest", "MIA"]


class TestBlasThreads:
    def test_csvs_identical_across_blas_thread_counts(self, tmp_path):
        # desk-sized layers, so BLAS has work to split across threads
        cfg = MINI_CONFIG.replace("k = 6", "k = 10").replace("per_class = 25", "per_class = 40")
        cfg = cfg.replace("height = 5", "height = 16").replace("width = 5", "width = 16")
        cfg = cfg.replace("seeds = 1,2", "seeds = 1")
        (tmp_path / "blas.cfg").write_text(cfg)
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            outs[threads] = tmp_path / f"threads_{threads}"
            subprocess.run([sys.executable, "-m", "natmu.cli", "run", "--config",
                            str(tmp_path / "blas.cfg"), "--out-dir", str(outs[threads])],
                           env=env, check=True, capture_output=True)
        csvs = sorted(p.relative_to(outs["1"]) for p in outs["1"].rglob("*.csv"))
        assert len(csvs) == 7  # five reports, curves, aggregate
        for rel in csvs:
            assert filecmp.cmp(outs["1"] / rel, outs["2"] / rel, shallow=False), rel
