import filecmp
import json

import numpy as np
import pytest

from natmu import cli, data, masks

CONFIG = """
[dataset]
kind = synth
k = 6
per_class = 20
test_per_class = 8
height = 4
width = 4
channels = 1
spread = 0.5

[pretrain]
epochs = 4
batch_size = 16
base_lr = 0.002

[unlearn]
epochs = 2
batch_size = 16
base_lr = 0.003

[forget]
mode = random
ratio = 0.1

[run]
seeds = 1
methods = retrain,natmu

[method.natmu]
n = 3
delta = -0.05
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG)
    return str(path)


class TestDatasetCommands:
    def test_synth_then_inspect(self, tmp_path, capsys):
        out = tmp_path / "blobs.uds"
        code = cli.main(["dataset", "synth", "--out", str(out), "--k", "3",
                         "--per-class", "5", "--height", "3", "--width", "3",
                         "--channels", "1", "--seed", "9"])
        assert code == 0
        assert cli.main(["dataset", "inspect", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "N=15" in captured and "K=3" in captured
        assert "class 2: 5" in captured

    def test_inspect_bad_file_exits_validation(self, tmp_path, capsys):
        bad = tmp_path / "junk.uds"
        bad.write_bytes(b"JUNKJUNKJUNK" + b"\x00" * 30)
        assert cli.main(["dataset", "inspect", str(bad)]) == cli.EXIT_VALIDATION

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert cli.main(["dataset", "inspect", str(tmp_path / "none.uds")]) == \
            cli.EXIT_RUNTIME


class TestMaskDump:
    def test_dump_matches_library_masks(self, tmp_path):
        out = tmp_path / "masks.csv"
        code = cli.main(["mask", "dump", "--family", "gradual", "--w", "32",
                         "--h", "32", "--delta", "-0.031", "--out", str(out)])
        assert code == 0
        expected = masks.four_masks(32, 32, -0.031)
        for j in range(1, 5):
            rows = (tmp_path / f"masks_{j}.csv").read_text().splitlines()
            parsed = np.array([[float(x) for x in r.split(",")] for r in rows])
            np.testing.assert_allclose(parsed, expected[j - 1].values, atol=5e-7)

    def test_bad_family_is_validation_error(self, tmp_path):
        code = cli.main(["mask", "dump", "--family", "nope",
                         "--out", str(tmp_path / "m.csv")])
        assert code == cli.EXIT_VALIDATION


class TestPipelineCommands:
    def test_pretrain_build_unlearn_evaluate(self, tmp_path, config_path):
        model_path = tmp_path / "original.nmu"
        trace_path = tmp_path / "trace.json"
        assert cli.main(["pretrain", "--config", config_path, "--seed", "1",
                         "--out", str(model_path), "--trace", str(trace_path)]) == 0
        trace = json.loads(trace_path.read_text())
        assert trace["epochs"] == 4
        assert len(trace["counts"]) == 120

        built = tmp_path / "finetune.uds"
        prov = tmp_path / "prov.jsonl"
        assert cli.main(["build", "--config", config_path, "--model",
                         str(model_path), "--variant", "natmu", "--n", "3",
                         "--delta", "-0.05", "--seed", "1", "--out", str(built),
                         "--provenance", str(prov)]) == 0
        ds = data.load_raw(str(built))
        assert len(ds) == 108 + 3 * 12  # remaining + n * forgetting
        lines = [json.loads(line) for line in prov.read_text().splitlines()]
        assert len(lines) == 3 * 12
        assert set(lines[0]) == {"forget_index", "remaining_index", "category",
                                 "mask_index"}

        retrained = tmp_path / "retrain.nmu"
        unlearned = tmp_path / "natmu.nmu"
        assert cli.main(["unlearn", "--method", "retrain", "--config", config_path,
                         "--seed", "1", "--out", str(retrained)]) == 0
        assert cli.main(["unlearn", "--method", "natmu", "--config", config_path,
                         "--model", str(model_path), "--seed", "1",
                         "--out", str(unlearned)]) == 0

        report = tmp_path / "report.csv"
        hist = tmp_path / "hist"
        assert cli.main(["evaluate", "--config", config_path, "--seed", "1",
                         "--model", str(unlearned), "--retrain", str(retrained),
                         "--method", "natmu", "--out", str(report),
                         "--hist-prefix", str(hist), "--hist-bins", "10"]) == 0
        rows = report.read_text().splitlines()
        assert rows[0] == "metric,value,retrain_value,gap"
        names = [r.split(",")[0] for r in rows[1:]]
        assert names == ["TA", "RA", "FA", "MIA", "KL_avg", "Avg.Gap"]
        hist_rows = (tmp_path / "hist_forget.csv").read_text().splitlines()
        assert hist_rows[0] == "bin_left,count"
        assert sum(int(r.split(",")[1]) for r in hist_rows[1:]) == 12

    @pytest.mark.parametrize("method", ["amnesiac", "badteacher", "neggrad"])
    def test_unlearn_each_method(self, tmp_path, config_path, method):
        model_path = tmp_path / "m.nmu"
        assert cli.main(["pretrain", "--config", config_path, "--seed", "1",
                         "--out", str(model_path)]) == 0
        out = tmp_path / f"{method}.nmu"
        assert cli.main(["unlearn", "--method", method, "--config", config_path,
                         "--model", str(model_path), "--seed", "1",
                         "--out", str(out)]) == 0
        assert out.exists()

    def test_evaluate_without_method_skips_kl(self, tmp_path, config_path):
        # no method given means no unlearning dataset: KL stays blank
        model_path = tmp_path / "m.nmu"
        retrain_path = tmp_path / "r.nmu"
        assert cli.main(["pretrain", "--config", config_path, "--seed", "1",
                         "--out", str(model_path)]) == 0
        assert cli.main(["unlearn", "--method", "retrain", "--config", config_path,
                         "--seed", "1", "--out", str(retrain_path)]) == 0
        report = tmp_path / "nokl.csv"
        assert cli.main(["evaluate", "--config", config_path, "--seed", "1",
                         "--model", str(model_path), "--retrain", str(retrain_path),
                         "--out", str(report)]) == 0
        kl_row = [r for r in report.read_text().splitlines()
                  if r.startswith("KL_avg")][0]
        assert kl_row.split(",")[1] == ""

    def test_unlearn_without_model_is_validation_error(self, tmp_path, config_path):
        assert cli.main(["unlearn", "--method", "natmu", "--config", config_path,
                         "--seed", "1", "--out", str(tmp_path / "x.nmu")]) == \
            cli.EXIT_VALIDATION

    def test_run_command(self, tmp_path, config_path):
        out = tmp_path / "results"
        assert cli.main(["run", "--config", config_path,
                         "--out-dir", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert (out / "seed_1" / "report_natmu.csv").exists()

    def test_missing_config_is_validation_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == \
            cli.EXIT_VALIDATION

    def test_bad_argument_is_validation_error(self):
        assert cli.main(["unlearn", "--method", "ssd", "--config", "x",
                         "--out", "y"]) == cli.EXIT_VALIDATION


class TestStageRunParity:
    @pytest.mark.parametrize("mode", ["random", "difficult"])
    def test_stage_reports_equal_run_reports(self, tmp_path, mode):
        # every way into the pipeline gives the same report for (config, seed)
        methods = ("retrain", "amnesiac", "badteacher", "neggrad", "natmu")
        path = tmp_path / "exp.cfg"
        path.write_text(CONFIG.replace("mode = random", f"mode = {mode}")
                        .replace("methods = retrain,natmu", "methods = " + ",".join(methods)))
        common = ["--config", str(path), "--seed", "1"]
        original = str(tmp_path / "original.nmu")
        assert cli.main(["pretrain", *common, "--out", original]) == 0
        for method in methods:
            model = [] if method == "retrain" else ["--model", original]
            assert cli.main(["unlearn", "--method", method, *common, *model,
                             "--out", str(tmp_path / f"{method}.nmu")]) == 0
        assert cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path / "run")]) == 0
        for method in methods:
            report = tmp_path / f"report_{method}.csv"
            assert cli.main(["evaluate", *common, "--model", str(tmp_path / f"{method}.nmu"),
                             "--retrain", str(tmp_path / "retrain.nmu"), "--method", method,
                             "--out", str(report)]) == 0
            assert filecmp.cmp(report, tmp_path / "run" / "seed_1" / f"report_{method}.csv",
                               shallow=False), method


class TestCheckCommand:
    def test_fast_checks_pass(self, capsys):
        assert cli.main(["check", "--skip-slow"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 7
        assert out.count("[SKIP]") == 3
