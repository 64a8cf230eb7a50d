import argparse
import filecmp
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from natmu import cli, data, masks, methods, nn, runner

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

    def test_synth_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["dataset", "synth", "--out", "x.uds"])
        spec = runner.SynthSpec()
        for flag in ("k", "per_class", "height", "width", "channels", "spread"):
            assert getattr(args, flag) == getattr(spec, flag), flag

    @pytest.mark.parametrize("flag, value", [
        ("--k", "1"), ("--per-class", "0"), ("--height", "0"), ("--width", "0"),
        ("--channels", "0"), ("--spread", "-1")])
    def test_synth_rejects_bad_parameters_before_writing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "blobs.uds"
        assert cli.main(["dataset", "synth", "--out", str(out), flag, value]) == \
            cli.EXIT_VALIDATION
        assert not out.exists()
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_synth_with_more_classes_than_u16_labels_hold_writes_nothing(self, tmp_path,
                                                                         capsys):
        out = tmp_path / "wide.uds"
        assert cli.main(["dataset", "synth", "--out", str(out), "--k", "65537",
                         "--per-class", "1", "--height", "1", "--width", "1"]) == \
            cli.EXIT_VALIDATION
        assert not out.exists()
        assert "UDS header K must be <= 65536" in capsys.readouterr().err

    def test_synth_checks_the_header_before_making_the_data(self, tmp_path, monkeypatch,
                                                            capsys):
        calls = []
        monkeypatch.setattr(data, "synth_blobs", lambda *a, **k: calls.append(a))
        out = tmp_path / "wide.uds"
        assert cli.main(["dataset", "synth", "--out", str(out), "--k", "65537",
                         "--per-class", "20", "--height", "4", "--width", "4"]) == \
            cli.EXIT_VALIDATION
        assert calls == [] and list(tmp_path.iterdir()) == []
        assert "UDS header K must be <= 65536" in capsys.readouterr().err

    @pytest.mark.parametrize("blob", [
        b"JUNKJUNKJUNK" + b"\x00" * 30,
        data.MAGIC + struct.pack("<IIIII", 3, 4, 0, 1, 2) + bytes(3 * 2),  # W = 0
        data.MAGIC + struct.pack("<IIIII", 3, 2, 2, 1, 1) + bytes(3 * 18)],  # K = 1
        ids=["junk", "zero-width", "one-class"])
    def test_inspect_bad_file_exits_validation(self, tmp_path, capsys, blob):
        bad = tmp_path / "junk.uds"
        bad.write_bytes(blob)
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
            np.testing.assert_allclose(parsed, expected[j - 1], atol=5e-7)

    def test_bad_family_is_validation_error(self, tmp_path):
        code = cli.main(["mask", "dump", "--family", "nope",
                         "--out", str(tmp_path / "m.csv")])
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("family", ["gradual", "constant"])
    def test_edge_for_a_family_without_one_writes_nothing(self, tmp_path, capsys, family):
        code = cli.main(["mask", "dump", "--family", family, "--edge-len", "2",
                         "--out", str(tmp_path / "m.csv")])
        assert code == cli.EXIT_VALIDATION
        assert list(tmp_path.iterdir()) == []
        assert "takes no edge length" in capsys.readouterr().err

    @pytest.mark.parametrize("family", masks.MASK_FAMILIES)
    @pytest.mark.parametrize("size, match", [
        (["--h", "0"], "error: mask height must be >= 1, got 0"),
        (["--w", "0"], "error: mask width must be >= 1, got 0"),
        (["--h", "-1"], "error: mask height must be >= 1, got -1")])
    def test_empty_or_negative_size_writes_nothing(self, tmp_path, capsys, family, size,
                                                   match):
        code = cli.main(["mask", "dump", "--family", family, *size,
                         "--out", str(tmp_path / "m.csv")])
        assert code == cli.EXIT_VALIDATION
        assert list(tmp_path.iterdir()) == []
        assert match in capsys.readouterr().err.splitlines()


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

    @pytest.mark.parametrize("command", ["unlearn", "evaluate"])
    def test_method_choices_are_the_method_table(self, command):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in commands.choices[command]._actions if a.dest == "method")
        assert method.choices == tuple(methods.METHODS) == (
            "retrain", "natmu", "amnesiac", "badteacher", "neggrad")

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

    @pytest.mark.parametrize("method, pretrains", [
        ("amnesiac", 0), ("neggrad", 0), ("badteacher", 1), ("natmu", 1)])
    def test_evaluate_pretrains_only_for_sets_read_from_the_model(
            self, tmp_path, config_path, monkeypatch, method, pretrains):
        model = str(tmp_path / "m.nmu")
        assert cli.main(["pretrain", "--config", config_path, "--out", model]) == 0
        calls = []
        pretrain = runner.pretrain_model
        monkeypatch.setattr(runner, "pretrain_model",
                            lambda *a, **k: calls.append(a) or pretrain(*a, **k))
        assert cli.main(["evaluate", "--config", config_path, "--model", model,
                         "--retrain", model, "--method", method,
                         "--out", str(tmp_path / "report.csv")]) == 0
        assert len(calls) == pretrains

    @pytest.mark.parametrize("method", ["natmu", "badteacher"])
    def test_evaluate_pretrains_before_releasing_the_training_set(
            self, tmp_path, config_path, monkeypatch, method):
        # the same report, from one pretrain, whether the full set is released or kept
        model = str(tmp_path / "m.nmu")
        assert cli.main(["pretrain", "--config", config_path, "--out", model]) == 0
        calls = []
        pretrain = runner.pretrain_model
        monkeypatch.setattr(runner, "pretrain_model",
                            lambda *a, **k: calls.append(a) or pretrain(*a, **k))
        argv = ["evaluate", "--config", config_path, "--model", model, "--retrain", model,
                "--method", method, "--out"]
        assert cli.main([*argv, str(tmp_path / "released.csv")]) == 0
        made = runner.PreparedSeed.original.fget

        def kept(self):  # the original, made with the full set held on
            train = self.train
            model = made(self)
            self.train = train
            return model
        monkeypatch.setattr(runner.PreparedSeed, "original", property(kept))
        assert cli.main([*argv, str(tmp_path / "kept.csv")]) == 0
        assert len(calls) == 2
        assert filecmp.cmp(tmp_path / "released.csv", tmp_path / "kept.csv", shallow=False)

    def test_bad_hist_bins_exit_before_any_work(self, tmp_path, config_path, monkeypatch):
        model = str(tmp_path / "m.nmu")
        assert cli.main(["pretrain", "--config", config_path, "--out", model]) == 0
        calls = []
        monkeypatch.setattr(cli, "prepare_seed", lambda *a, **k: calls.append(a))
        report = tmp_path / "report.csv"
        assert cli.main(["evaluate", "--config", config_path, "--model", model,
                         "--retrain", model, "--out", str(report),
                         "--hist-prefix", str(tmp_path / "h"), "--hist-bins", "0"]) == \
            cli.EXIT_VALIDATION
        assert calls == [] and not report.exists()

    @pytest.mark.parametrize("command, flag", [
        ("pretrain", "--out"), ("pretrain", "--trace"), ("build", "--out"),
        ("build", "--provenance"), ("unlearn", "--out"), ("evaluate", "--out"),
        ("evaluate", "--hist-prefix")])
    def test_output_in_a_missing_directory_exits_before_any_work(
            self, tmp_path, config_path, monkeypatch, capsys, command, flag):
        calls = []
        monkeypatch.setattr(cli, "prepare_seed", lambda *a, **k: calls.append(a))
        model = str(tmp_path / "m.nmu")
        argv = [command, "--config", config_path, "--out", str(tmp_path / "out")]
        argv += {"pretrain": ["--trace", str(tmp_path / "trace.json")],
                 "build": ["--model", model, "--provenance", str(tmp_path / "prov.jsonl")],
                 "unlearn": ["--method", "retrain"],
                 "evaluate": ["--model", model, "--retrain", model,
                              "--hist-prefix", str(tmp_path / "h")]}[command]
        missing = str(tmp_path / "nodir" / "file")
        argv[argv.index(flag) + 1] = missing
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(argv) == cli.EXIT_RUNTIME
        assert calls == [] and sorted(tmp_path.rglob("*")) == before
        err = capsys.readouterr().err
        assert err.startswith("io failure:") and missing in err

    @pytest.mark.parametrize("n", ["0", "6"])  # K = 6 leaves 1..5
    def test_bad_build_n_exits_before_any_work(self, tmp_path, config_path, monkeypatch,
                                               n):
        calls = []
        monkeypatch.setattr(cli, "prepare_seed", lambda *a, **k: calls.append(a))
        out = tmp_path / "finetune.uds"
        assert cli.main(["build", "--config", config_path, "--model",
                         str(tmp_path / "m.nmu"), "--n", n, "--out", str(out)]) == \
            cli.EXIT_VALIDATION
        assert calls == [] and not out.exists()

    def test_build_family_without_the_configs_edge_exits_before_any_work(
            self, tmp_path, monkeypatch, capsys):
        # the config's edge is its cutmix-corner family's; --mask-family takes none
        path = tmp_path / "exp.cfg"
        path.write_text(CONFIG + "mask_family = cutmix-corner\ncutmix_edge = 2\n")
        calls = []
        monkeypatch.setattr(cli, "prepare_seed", lambda *a, **k: calls.append(a))
        out = tmp_path / "finetune.uds"
        assert cli.main(["build", "--config", str(path), "--model", str(tmp_path / "m.nmu"),
                         "--mask-family", "gradual", "--out", str(out)]) == \
            cli.EXIT_VALIDATION
        assert calls == [] and not out.exists()
        assert "cutmix_edge = 2 needs mask family" in capsys.readouterr().err

    def test_bad_build_delta_exits_before_any_work(self, tmp_path, config_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "prepare_seed", lambda *a, **k: calls.append(a))
        out = tmp_path / "finetune.uds"
        assert cli.main(["build", "--config", config_path, "--model",
                         str(tmp_path / "m.nmu"), "--delta", "nan", "--out", str(out)]) == \
            cli.EXIT_VALIDATION
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("dims", [(16, 3), (25, 6)], ids=["classes", "inputs"])
    @pytest.mark.parametrize("command", ["evaluate --model", "evaluate --retrain",
                                         "unlearn amnesiac", "build natmu"])
    def test_checkpoint_that_does_not_fit_the_data_refused(
            self, tmp_path, config_path, monkeypatch, capsys, command, dims):
        # CONFIG's rows have 4 x 4 = 16 inputs and 6 classes
        fits, bad = str(tmp_path / "fits.nmu"), str(tmp_path / "bad.nmu")
        assert cli.main(["pretrain", "--config", config_path, "--out", fits]) == 0
        nn.save_model(nn.init_model(methods.default_dims(*dims), seed=3), bad)
        calls = []
        for module in (nn, methods, runner):
            monkeypatch.setattr(module, "train", lambda *a, **k: calls.append(a))
        verb, flag = command.split()
        out = tmp_path / "out"
        argv = [verb, "--config", config_path, "--out", str(out)]
        if verb == "evaluate":
            argv += ["--method", "amnesiac", "--model", fits, "--retrain", fits]
            argv[argv.index(flag) + 1] = bad
        else:
            argv += ["--model", bad] + (["--method", flag] if verb == "unlearn" else [])
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert calls == [] and not out.exists()
        assert capsys.readouterr().err.startswith(f"error: checkpoint {bad} maps "
                                                  f"{dims[0]} inputs to {dims[1]} classes")

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


METHODS = ("retrain", "amnesiac", "badteacher", "neggrad", "natmu")
DIFFICULT = CONFIG.replace("mode = random", "mode = difficult")


class TestTraceRecord:
    """In difficult mode the split travels with each checkpoint as a trace
    record beside it; the commands given a checkpoint read it back."""

    @pytest.fixture()
    def stage(self, tmp_path, monkeypatch):
        path = tmp_path / "exp.cfg"
        path.write_text(DIFFICULT)
        original = str(tmp_path / "original.nmu")
        assert cli.main(["pretrain", "--config", str(path), "--out", original,
                         "--trace", str(tmp_path / "trace.json")]) == 0
        calls = []
        pretrain = runner.pretrain_model
        monkeypatch.setattr(runner, "pretrain_model",
                            lambda *a, **k: calls.append(a) or pretrain(*a, **k))
        return {"dir": tmp_path, "config": str(path), "original": original, "calls": calls}

    @staticmethod
    def command(stage, name, seed="1", model=None, retrain=None, out=None):
        """argv of one stage command, writing `out` (default `stage["dir"]/out`)."""
        verb, method = name.split()
        model = model or stage["original"]
        argv = [verb, "--config", stage["config"], "--seed", seed,
                "--out", out or str(stage["dir"] / "out")]
        if verb == "build":
            return argv + ["--model", model]
        if verb == "unlearn":
            return argv + ["--method", method, "--model", model]
        return argv + ["--model", model, "--retrain", retrain or model, "--method", method]

    def refused(self, stage, capsys, argv, *words):
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert not (stage["dir"] / "out").exists()
        assert stage["calls"] == []
        err = capsys.readouterr().err
        for word in words:
            assert word in err, (word, err)

    @pytest.mark.parametrize("name, pretrains", [
        ("build natmu", 0),
        *((f"unlearn {m}", 0) for m in METHODS),
        # the pretrain checkpoint's record names no source to rank categories with
        *((f"evaluate {m}", int(m in ("natmu", "badteacher"))) for m in METHODS)])
    def test_only_evaluate_of_the_pretrain_checkpoint_pretrains(self, stage, name, pretrains):
        assert cli.main(self.command(stage, name)) == 0
        assert len(stage["calls"]) == pretrains

    @pytest.mark.parametrize("name", [
        "pretrain", "build natmu", *(f"unlearn {m}" for m in METHODS),
        *(f"evaluate {m}" for m in METHODS)])
    def test_commands_hold_no_full_training_set_beside_the_split(
            self, stage, monkeypatch, name):
        # the pretrain and the trace key are the only readers of the full set
        held = []
        for step in ("request", "unlearn", "report", "save"):
            def traced(self, *args, _step=getattr(runner.PreparedSeed, step), **kwargs):
                held.append(self.train is not None)
                return _step(self, *args, **kwargs)
            monkeypatch.setattr(runner.PreparedSeed, step, traced)
        argv = (["pretrain", "--config", stage["config"], "--seed", "1",
                 "--out", str(stage["dir"] / "out")] if name == "pretrain"
                else self.command(stage, name))
        assert cli.main(argv) == 0
        assert held and not any(held)

    def test_records_beside_checkpoints_equal_the_trace_file(self, stage):
        record = stage["original"] + runner.RECORD_SUFFIX
        assert filecmp.cmp(record, stage["dir"] / "trace.json", shallow=False)
        original = json.loads(Path(record).read_text())
        assert list(original) == ["seed", "pretrain", "data_sha256", "ids", "counts", "epochs"]
        out = f"{stage['dir'] / 'out'}{runner.RECORD_SUFFIX}"
        assert cli.main(self.command(stage, "unlearn retrain")) == 0
        assert filecmp.cmp(record, out, shallow=False)
        # an unlearned model's record also names the checkpoint it started from
        assert cli.main(self.command(stage, "unlearn natmu")) == 0
        sha256 = hashlib.sha256(Path(stage["original"]).read_bytes()).hexdigest()
        assert json.loads(Path(out).read_text()) == {
            **original, "source": {"path": "original.nmu", "sha256": sha256}}

    def unlearned(self, stage, method):
        """`method`'s unlearned checkpoint of the original model."""
        path = str(stage["dir"] / f"{method}.nmu")
        assert cli.main(self.command(stage, f"unlearn {method}", out=path)) == 0
        return path

    @pytest.mark.parametrize("method", ["natmu", "badteacher"])
    def test_evaluate_loads_the_source_in_place_of_a_pretrain(self, stage, method):
        model = self.unlearned(stage, method)
        assert cli.main(self.command(stage, f"evaluate {method}", model=model)) == 0
        assert stage["calls"] == []
        # the same report as from a pretrain, which a record without source makes
        record = Path(model + runner.RECORD_SUFFIX)
        record.write_text(json.dumps({key: value for key, value in
                                      json.loads(record.read_text()).items()
                                      if key != "source"}))
        pretrained = str(stage["dir"] / "pretrained.csv")
        assert cli.main(self.command(stage, f"evaluate {method}", model=model,
                                     out=pretrained)) == 0
        assert len(stage["calls"]) == 1
        assert filecmp.cmp(stage["dir"] / "out", pretrained, shallow=False)

    def test_moved_run_directory_keeps_its_sources(self, stage):
        model = self.unlearned(stage, "natmu")
        moved = stage["dir"] / "moved"
        moved.mkdir()
        for name in ("exp.cfg", "original.nmu", "natmu.nmu",
                     "original.nmu" + runner.RECORD_SUFFIX, "natmu.nmu" + runner.RECORD_SUFFIX):
            (stage["dir"] / name).rename(moved / name)
        stage["config"] = str(moved / "exp.cfg")
        assert not Path(model).exists()
        assert cli.main(self.command(stage, "evaluate natmu",
                                     model=str(moved / "natmu.nmu"))) == 0
        assert stage["calls"] == []

    @pytest.mark.parametrize("fault", ["missing", "changed"])
    @pytest.mark.parametrize("name", ["evaluate natmu", "evaluate badteacher",
                                      "evaluate amnesiac"])
    def test_bad_source_refused(self, stage, capsys, fault, name):
        model = self.unlearned(stage, name.split()[1])
        original = Path(stage["original"])
        if fault == "missing":
            original.unlink()
        else:
            blob = bytearray(original.read_bytes())
            blob[-1] ^= 1
            original.write_bytes(bytes(blob))
        self.refused(stage, capsys, self.command(stage, name, model=model),
                     model + runner.RECORD_SUFFIX, "source")

    def test_random_mode_writes_no_record(self, tmp_path, config_path):
        original = str(tmp_path / "original.nmu")
        assert cli.main(["pretrain", "--config", config_path, "--out", original]) == 0
        assert not Path(original + runner.RECORD_SUFFIX).exists()

    @pytest.mark.parametrize("name", ["build natmu", "unlearn neggrad", "evaluate amnesiac"])
    def test_missing_record_refused(self, stage, capsys, name):
        record = stage["original"] + runner.RECORD_SUFFIX
        Path(record).unlink()
        self.refused(stage, capsys, self.command(stage, name), record)

    MALFORMED = [  # (fault, the record's text made from the one `pretrain` wrote, error word)
        ("not an object", lambda record: json.dumps(record["counts"]), "not a JSON object"),
        ("not JSON", lambda record: json.dumps(record)[:-1], "unreadable"),
        ("other ids", lambda record: json.dumps({**record, "ids": record["ids"][::-1]}),
         "ids does not match"),
        ("other epochs", lambda record: json.dumps({**record, "epochs": record["epochs"] + 1}),
         "epochs does not match"),
        ("count above epochs", lambda record: json.dumps(
            {**record, "counts": [record["epochs"] + 1, *record["counts"][1:]]}), "counts"),
        ("source without sha256", lambda record: json.dumps(
            {**record, "source": {"path": "original.nmu"}}), "sha256"),
    ]

    @pytest.mark.parametrize("fault, rewrite, word", MALFORMED, ids=[f for f, _, _ in MALFORMED])
    def test_malformed_record_refused(self, stage, capsys, fault, rewrite, word):
        record = Path(stage["original"] + runner.RECORD_SUFFIX)
        record.write_text(rewrite(json.loads(record.read_text())))
        self.refused(stage, capsys, self.command(stage, "build natmu"), str(record), word)

    def test_another_seed_refused(self, stage, capsys):
        self.refused(stage, capsys, self.command(stage, "unlearn natmu", seed="2"),
                     stage["original"] + runner.RECORD_SUFFIX, "seed")

    def test_another_pretrain_section_refused(self, stage, capsys):
        Path(stage["config"]).write_text(DIFFICULT.replace("epochs = 4", "epochs = 3"))
        self.refused(stage, capsys, self.command(stage, "build natmu"), "pretrain")

    def test_rewritten_dataset_refused(self, tmp_path, capsys, monkeypatch):
        files = {split: tmp_path / f"{split}.uds" for split in ("train", "test")}
        for split, path in files.items():
            data.save_raw(data.synth_blobs(6, 20, 4, 4, 1, seed=1, split=split), path)
        config = tmp_path / "exp.cfg"
        config.write_text(f"[dataset]\nkind = uds\ntrain_path = {files['train']}\n"
                          f"test_path = {files['test']}\n\n"
                          + DIFFICULT[DIFFICULT.index("[pretrain]"):])
        original = str(tmp_path / "original.nmu")
        assert cli.main(["pretrain", "--config", str(config), "--out", original]) == 0
        data.save_raw(data.synth_blobs(6, 20, 4, 4, 1, seed=2), files["train"])
        stage = {"dir": tmp_path, "config": str(config), "original": original, "calls": []}
        monkeypatch.setattr(runner, "pretrain_model",
                            lambda *a, **k: stage["calls"].append(a))
        self.refused(stage, capsys, self.command(stage, "unlearn amnesiac"), "data_sha256")

    def test_retrain_record_of_another_split_refused(self, stage, capsys):
        # a retrain made for seed 2, and one whose record holds other counts
        other = str(stage["dir"] / "other.nmu")
        argv = self.command(stage, "unlearn retrain", seed="2", out=other)
        assert argv[-2:] == ["--model", stage["original"]]
        assert cli.main(argv[:-2]) == 0  # without --model, a pretrain gives the split
        assert len(stage["calls"]) == 1
        stage["calls"].clear()
        self.refused(stage, capsys, self.command(stage, "evaluate neggrad", retrain=other),
                     other + runner.RECORD_SUFFIX, "seed")
        record = json.loads(Path(stage["original"] + runner.RECORD_SUFFIX).read_text())
        counts = record["counts"]
        first = next(i for i, c in enumerate(counts) if c != counts[0])
        counts[0], counts[first] = counts[first], counts[0]
        Path(other + runner.RECORD_SUFFIX).write_text(json.dumps(record))
        self.refused(stage, capsys, self.command(stage, "evaluate neggrad", retrain=other),
                     other + runner.RECORD_SUFFIX, "counts")

    def retrain(self, stage, out):
        """argv of `unlearn retrain` without --model, writing `out`."""
        return self.command(stage, "unlearn retrain", out=str(out))[:-2]

    def test_retrain_takes_the_split_from_the_record_beside_out(self, stage):
        cached, given = stage["dir"] / "cached.nmu", stage["dir"] / "given.nmu"
        assert cli.main(self.retrain(stage, cached)) == 0
        assert stage["calls"] == []
        assert cli.main(self.command(stage, "unlearn retrain", out=str(given))) == 0
        for suffix in ("", runner.RECORD_SUFFIX):
            assert filecmp.cmp(f"{cached}{suffix}", f"{given}{suffix}", shallow=False)

    HELD = {  # a record's text made from the one `pretrain` wrote, matching no key
        "another seed's record": lambda record: json.dumps({**record, "seed": 2}),
        "another [pretrain]": lambda record: json.dumps(
            {**record, "pretrain": {**record["pretrain"], "base_lr": 0.001}}),
        "not a JSON object": lambda record: json.dumps(record["counts"]),
        "unparsable": lambda record: "{",
    }

    @pytest.mark.parametrize("held", ["nothing", *HELD])
    def test_retrain_without_a_matching_record_pretrains(self, stage, held):
        original = stage["original"] + runner.RECORD_SUFFIX
        other = stage["dir"] / "other"
        other.mkdir()
        if held != "nothing":
            record = json.loads(Path(original).read_text())
            (other / f"original.nmu{runner.RECORD_SUFFIX}").write_text(self.HELD[held](record))
        out = str(other / "retrain.nmu")
        assert cli.main(self.retrain(stage, out)) == 0
        assert len(stage["calls"]) == 1
        assert filecmp.cmp(out + runner.RECORD_SUFFIX, original, shallow=False)

    @pytest.mark.parametrize("fault", ["counts differ", "count above epochs", "a true count",
                                       "a float count"])
    def test_matching_record_with_bad_counts_refused(self, stage, capsys, fault):
        record = json.loads(Path(stage["original"] + runner.RECORD_SUFFIX).read_text())
        counts = record["counts"]
        if fault == "counts differ":
            first = next(i for i, c in enumerate(counts) if c != counts[0])
            counts[0], counts[first] = counts[first], counts[0]
        elif fault == "count above epochs":
            counts[0] = record["epochs"] + 1
        else:  # JSON `true` and `1.0`, each equal to the count 1
            counts[0] = True if fault == "a true count" else 1.0
        copy = f"{stage['dir'] / 'copy.nmu'}{runner.RECORD_SUFFIX}"
        Path(copy).write_text(json.dumps(record))
        self.refused(stage, capsys, self.retrain(stage, stage["dir"] / "out"), copy, "counts")

    def test_retrain_never_reads_the_source(self, stage):
        self.unlearned(stage, "natmu")  # its record's source is original.nmu
        for path in (stage["original"], stage["original"] + runner.RECORD_SUFFIX):
            Path(path).unlink()
        assert cli.main(self.retrain(stage, stage["dir"] / "retrain.nmu")) == 0
        assert stage["calls"] == []

    @pytest.mark.parametrize("mode", ["mode = random", "mode = class\nclass_index = 1"])
    def test_random_and_class_mode_read_no_record(self, stage, mode):
        # the key holds no forgetting mode, so this record would match and be refused
        record = json.loads(Path(stage["original"] + runner.RECORD_SUFFIX).read_text())
        record["counts"][0] = record["epochs"] + 1
        Path(f"{stage['dir'] / 'copy.nmu'}{runner.RECORD_SUFFIX}").write_text(json.dumps(record))
        Path(stage["config"]).write_text(CONFIG.replace("mode = random", mode))
        assert cli.main(self.retrain(stage, stage["dir"] / "retrain.nmu")) == 0
        assert stage["calls"] == []

    def test_source_that_does_not_fit_the_data_refused(self, stage, capsys):
        model = self.unlearned(stage, "natmu")
        bad = str(stage["dir"] / "bad.nmu")
        nn.save_model(nn.init_model(methods.default_dims(16, 3), seed=3), bad)
        record = Path(model + runner.RECORD_SUFFIX)
        record.write_text(json.dumps({**json.loads(record.read_text()), "source": {
            "path": "bad.nmu", "sha256": hashlib.sha256(Path(bad).read_bytes()).hexdigest()}}))
        self.refused(stage, capsys, self.command(stage, "evaluate natmu", model=model),
                     f"checkpoint {bad}", "3 classes")


class TestStageRunParity:
    # mode -> the CONFIG lines it replaces
    MODES = {
        "random": {},
        "difficult": {"mode = random": "mode = difficult"},
        # sub-class forgetting under a superclass map; 3 superclasses leave n = 2
        "class": {"mode = random\nratio = 0.1": "mode = class\nclass_index = 4\nscope = sub",
                  "spread = 0.5": "spread = 0.5\nsuperclass_map = 0,0,1,1,2,2",
                  "n = 3": "n = 2"},
    }

    @pytest.mark.parametrize("mode", ["random", "difficult", "class"])
    def test_stage_reports_equal_run_reports(self, tmp_path, mode):
        # every way into the pipeline gives the same report for (config, seed)
        methods = ("retrain", "amnesiac", "badteacher", "neggrad", "natmu")
        text = CONFIG.replace("methods = retrain,natmu", "methods = " + ",".join(methods))
        for old, new in self.MODES[mode].items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "exp.cfg"
        path.write_text(text)
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


class TestHeldTrainingSet:
    """In random and class mode no trace record holds the original: a
    command that uses it pretrains it through `PreparedSeed.original`, which
    drops the full training set, and the others never keep the set."""

    @pytest.mark.parametrize("name", [
        "pretrain", "pretrain --trace", "build natmu", *(f"unlearn {m}" for m in METHODS),
        *(f"evaluate {m}" for m in METHODS)])
    @pytest.mark.parametrize("mode", ["random", "class"])
    def test_commands_hold_no_full_training_set_beside_the_split(
            self, tmp_path, monkeypatch, mode, name):
        text = CONFIG
        for old, new in TestStageRunParity.MODES[mode].items():
            text = text.replace(old, new)
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        original = str(tmp_path / "original.nmu")
        assert cli.main(["pretrain", "--config", str(path), "--out", original]) == 0
        held = []
        for step in ("request", "unlearn", "report", "save"):
            def traced(self, *args, _step=getattr(runner.PreparedSeed, step), **kwargs):
                held.append(self.train is not None)
                return _step(self, *args, **kwargs)
            monkeypatch.setattr(runner.PreparedSeed, step, traced)
        stage = {"dir": tmp_path, "config": str(path), "original": original}
        if name.startswith("pretrain"):
            argv = ["pretrain", "--config", str(path), "--out", str(tmp_path / "out")]
            argv += ["--trace", str(tmp_path / "trace.json")] if "--trace" in name else []
        else:
            argv = TestTraceRecord.command(stage, name)
        assert cli.main(argv) == 0
        assert held and not any(held)


class TestCheckCommand:
    def test_fast_checks_pass(self, capsys):
        assert cli.main(["check", "--skip-slow"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 7
        assert out.count("[SKIP]") == 3
