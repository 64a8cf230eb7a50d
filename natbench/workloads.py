"""The benchmark's workloads: inputs made from the seed, the timed
operations, and the checks on what they produce.

Every workload runs natmu in-process through `natmu.cli.main`, the entry
point of the ``natmu`` command. Stage times are taken from the spans that
`spans.Tracer` records around `runner.pretrain_model`, `methods.retrain`
and the `UNLEARN_METHODS` entries (the run workloads) or by timing each
CLI command (`stages-difficult`); neither reads the run manifest's timings.
"""

import configparser
import contextlib
import functools
import io
import json
import time
from pathlib import Path

import numpy as np

import checks

METHODS = ("retrain", "amnesiac", "badteacher", "neggrad", "natmu")
UNLEARNERS = METHODS[1:]
# stage metric -> the spans (see spans.LAYER_TABLE) whose calls are its parts
STAGE_SPANS = {"pretrain_s": ("runner.pretrain",), "retrain_s": ("methods.retrain",),
               "unlearn_s": tuple(f"methods.{m}" for m in UNLEARNERS)}
# the benchmark's own checks between seeds; not a natmu module
CHECK_SPAN = "natbench.check"
NATMU_N = 4
NATMU_DELTA = -0.031
# The only fault this benchmark counts as a failed operation instead of
# an incorrect run: `natmu evaluate --method natmu` rebuilds the hybrid
# instances with the unlearned model as UnlearnRequest.model, so
# select_remaining ranks categories by the wrong model and KL_avg is
# computed over the wrong instances.
KNOWN_FAULT = ("evaluate natmu", "KL_avg")


class Outcome:
    """Operations with their failures, plus run-level problems."""

    def __init__(self):
        self.ops = []          # (name, reason or None)
        self.problems = []     # anything that makes the run incorrect
        # stage metric -> part -> durations; a part (one method, one
        # command) runs the same work each time it is timed
        self.stages = {"pretrain_s": {}, "retrain_s": {}, "unlearn_s": {}}

    def timed(self, metric, part, start):
        self.stages[metric].setdefault(part, []).append(time.perf_counter() - start)

    def op(self, name, reasons):
        self.ops.append((name, "; ".join(reasons) if reasons else None))
        known = reasons and all(KNOWN_FAULT[1] in r for r in reasons) \
            and name == KNOWN_FAULT[0]
        if reasons and not known:
            self.problems.append(f"{name}: unexpected failure")

    def summary(self) -> dict:
        failed = [(n, r) for n, r in self.ops if r is not None]
        return {"attempted": len(self.ops), "failed": len(failed),
                "failures": [f"{n}: {r}" for n, r in failed],
                "problems": self.problems, "stages": self.stages}


def _quiet(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# `natmu run` workloads


def run_seeds(bench_seed: int) -> list[int]:
    """Three root seeds per benchmark seed; seed 0 gives desk.cfg's 1,2,3."""
    return [3 * bench_seed + 1, 3 * bench_seed + 2, 3 * bench_seed + 3]


class RunWorkload:
    """`natmu run` over three seeds and all five methods; one operation
    per (seed, method) report."""

    class_wise = False
    # spans an untraced round needs: the stage clocks and the capture hooks
    SPANS = (*(s for spans in STAGE_SPANS.values() for s in spans),
             "runner.materialize", "methods.unlearning_dataset")

    def __init__(self, repo: Path, work: Path, bench_seed: int):
        self.repo, self.work, self.bench_seed = repo, work, bench_seed
        self.seeds = run_seeds(bench_seed)
        self.config_path = work / f"{self.name}.cfg"
        self.out = work / "out"

    def config(self) -> configparser.ConfigParser:
        raise NotImplementedError

    def setup(self, natmu, tracer):
        parser = self.config()
        parser["run"]["seeds"] = ",".join(map(str, self.seeds))
        with open(self.config_path, "w", encoding="ascii") as fh:
            parser.write(fh)
        self.cfg = natmu.runner.load_config(str(self.config_path))
        self.outcome = Outcome()
        self.tracer = tracer
        self.capture = _RunCapture(self, tracer)

    def run(self, natmu):
        self.code = _quiet(natmu.cli, ["run", "--config", str(self.config_path),
                                       "--out-dir", str(self.out)])
        self.capture.finish()
        durations = self.tracer.durations
        for metric, spans in STAGE_SPANS.items():
            self.outcome.stages[metric] = {s: list(durations[s]) for s in spans if durations[s]}
        return self.tracer.total[CHECK_SPAN]

    def check(self) -> Outcome:
        out = self.outcome
        if self.code != 0 or len(self.capture.seeds_done) != len(self.seeds):
            for seed in self.seeds:
                for method in METHODS:
                    out.op(f"seed {seed} {method}", [f"natmu run exited {self.code}"])
            return out
        per_seed = {}
        for seed in self.seeds:
            own = self.capture.seeds_done[seed]
            per_seed[seed] = {}
            for method in METHODS:
                path = self.out / f"seed_{seed}" / f"report_{method}.csv"
                try:
                    rows = checks.read_report(path)
                except (OSError, ValueError, IndexError) as exc:
                    out.op(f"seed {seed} {method}", [f"unreadable report: {exc}"])
                    continue
                per_seed[seed][method] = rows
                out.op(f"seed {seed} {method}",
                       self._report_problems(seed, method, rows, own))
        try:
            out.problems += self._run_problems(per_seed)
        except (OSError, ValueError, KeyError) as exc:
            out.problems.append(f"run outputs unreadable: {exc!r}")
        return out

    def gap_metrics(self):
        return ["TA", "RA", "FATrain", "FATest", "MIA"] if self.class_wise \
            else ["TA", "RA", "FA", "MIA"]

    def _report_problems(self, seed, method, rows, own) -> list[str]:
        name = f"seed {seed} {method}"
        problems = checks.report_problems(name, rows, self.gap_metrics())
        if problems:
            return problems
        for metric, (lo, hi) in own["accuracy"][method].items():
            value = rows[metric][0]
            if not lo - checks.CSV_TOL <= value <= hi + checks.CSV_TOL:
                problems.append(f"{metric} {value} outside recomputed [{lo:.6f}, {hi:.6f}]")
            ref_lo, ref_hi = own["accuracy"]["retrain"][metric]
            if not ref_lo - checks.CSV_TOL <= rows[metric][1] <= ref_hi + checks.CSV_TOL:
                problems.append(f"retrain {metric} {rows[metric][1]} outside recomputed range")
        if not checks.is_count_share(rows["MIA"][0], own["n_forget"]):
            problems.append(f"MIA {rows['MIA'][0]} is not a share of {own['n_forget']}")
        kl = rows["KL_avg"][0]
        want = own["kl"].get(method)
        if method == "neggrad":
            if kl is not None:
                problems.append(f"KL_avg {kl} reported for a method that never relabels")
        elif method == "retrain":
            if kl != 0.0 or rows["Avg.Gap"][2] != 0.0:
                problems.append(f"retrain row KL {kl} Avg.Gap {rows['Avg.Gap'][2]}")
        elif kl is None or abs(kl - want) > 1e-5 + 1e-5 * want:
            problems.append(f"KL_avg {kl} reported, {want:.6f} recomputed")
        return problems

    def _run_problems(self, per_seed) -> list[str]:
        problems = []
        manifest = json.loads((self.out / "manifest.json").read_text())
        if manifest["status"] != "complete":
            problems.append(f"manifest status {manifest['status']}")
        for seed in self.seeds:
            own = self.capture.seeds_done[seed]
            audit = manifest["retrain_audit"][str(seed)]
            want = {"batches_logged": self.cfg.pretrain.epochs * own["n_remaining"],
                    "forbidden_ids": own["n_forget"], "violations": 0}
            if audit != want:
                problems.append(f"seed {seed}: retrain audit {audit}, expected {want}")
            problems += self._curve_problems(seed, per_seed[seed])
        try:
            agg = checks.read_csv_rows(self.out / "aggregate.csv")
        except OSError as exc:
            return problems + [f"aggregate.csv: {exc}"]
        complete = {s: r for s, r in per_seed.items() if len(r) == len(METHODS)}
        if len(complete) == len(self.seeds):
            problems += checks.aggregate_problems(agg, complete)
        return problems + self.property_problems(per_seed)

    def _curve_problems(self, seed, reports) -> list[str]:
        """Per-epoch curves: one row per epoch, ending at the reported FA/RA."""
        rows = checks.read_csv_rows(self.out / f"seed_{seed}" / "curves.csv")
        fa_name = "FATrain" if self.class_wise else "FA"
        problems = []
        for method in METHODS:
            mine = [r for r in rows if r["method"] == method]
            epochs = (self.cfg.pretrain if method == "retrain" else self.cfg.unlearn).epochs
            if [int(r["epoch"]) for r in mine] != list(range(epochs)):
                problems.append(f"seed {seed} {method}: curve epochs")
                continue
            last, report = mine[-1], reports.get(method)
            if report and (abs(float(last["fa"]) - report[fa_name][0]) > checks.CSV_TOL
                           or abs(float(last["ra"]) - report["RA"][0]) > checks.CSV_TOL):
                problems.append(f"seed {seed} {method}: final curve point differs from report")
        return problems

    def split_problems(self, d_f, d_r, test) -> list[str]:
        raise NotImplementedError

    def property_problems(self, per_seed) -> list[str]:
        return []


class _RunCapture:
    """Per-seed independent recomputation for `natmu run`, fed by hooks on
    the tracer's spans.

    Each seed's checks run when the next seed's data is made (and after
    the last seed) inside a `CHECK_SPAN` span, so their time is left out of
    run_s and of the self time of the natmu spans around them, and the
    benchmark never holds more than one seed's data and adds little to the
    program's peak memory.
    """

    def __init__(self, workload, tracer):
        self.workload = workload
        self.seeds_done = {}
        self.pending = None
        self.finish = tracer.span(self._finish, CHECK_SPAN)
        tracer.before["runner.materialize"] = self.finish
        tracer.after["runner.materialize"] = self._on_materialize
        tracer.after["methods.unlearning_dataset"] = self._on_unlearning_dataset
        for method in METHODS:
            tracer.after[f"methods.{method}"] = self._keeper(method)

    def _on_materialize(self, args, kwargs, result):
        self.pending = {"test": result[1], "models": {}, "d_ul": {}}

    def _keeper(self, method):
        def keep(args, kwargs, result):
            # retrain returns (model, batch log), the unlearners a model
            self.pending["models"][method] = result[0] if method == "retrain" else result
        return keep

    def _on_unlearning_dataset(self, args, kwargs, d_ul):
        method, request = args
        self.pending["d_ul"][method] = d_ul
        self.pending["d_f"], self.pending["d_r"] = request.d_f, request.d_r

    def _finish(self):
        if self.pending is None:
            return
        seed = self.workload.seeds[len(self.seeds_done)]
        try:
            self.seeds_done[seed] = self._recompute(self.pending)
        except KeyError as exc:  # the seed's pipeline stopped early
            self.workload.outcome.problems.append(f"seed {seed}: no {exc} to check")
        self.pending = None

    def _recompute(self, p) -> dict:
        """Accuracy ranges and KL_avg of every model, from its weights."""
        w = self.workload
        d_f, d_r, test = p["d_f"], p["d_r"], p["test"]
        sets = {"TA": test, "RA": d_r}
        if w.class_wise:
            sets["FATrain"] = d_f
            sets["FATest"] = test.subset(np.nonzero(test.subclass_labels == w.forget_class)[0])
        else:
            sets["FA"] = d_f
        own = {"n_forget": len(d_f), "n_remaining": len(d_r), "accuracy": {}, "kl": {}}
        oracle = _layers(p["models"]["retrain"])
        for method, model in p["models"].items():
            own["accuracy"][method] = {
                name: checks.accuracy_range(_logits(_layers(model), ds.pixels), ds.labels)
                for name, ds in sets.items()}
            d_ul = p["d_ul"].get(method)
            if d_ul is not None:
                logits = _logits(oracle, d_ul.pixels)
                own["kl"][method] = (checks.kl_soft(logits, d_ul.soft_labels)
                                     if d_ul.soft_labels is not None
                                     else checks.kl_hard(logits, d_ul.labels, d_ul.k))
        problems = w.outcome.problems
        if len(d_ul := p["d_ul"]["natmu"]) != NATMU_N * len(d_f):
            problems.append(f"{len(d_ul)} hybrids for {len(d_f)} forgetting samples")
        if (p["d_ul"]["amnesiac"].labels == d_f.labels).any():
            problems.append("random relabeling kept a true label")
        problems += w.split_problems(d_f, d_r, test)
        return own


def _layers(model):
    return [(lyr.weight, lyr.bias) for lyr in model.layers]


def _logits(layers, pixels, chunk=1024):
    return np.concatenate([checks.mlp_logits(layers, pixels[i:i + chunk])
                           for i in range(0, len(pixels), chunk)])


class Desk(RunWorkload):
    name = "desk"

    def config(self):
        parser = configparser.ConfigParser()
        parser.read(self.repo / "configs" / "desk.cfg", encoding="utf-8")
        return parser

    def split_problems(self, d_f, d_r, test) -> list[str]:
        n = len(d_f) + len(d_r)
        problems = []
        if len(d_f) != round(self.cfg.forget_ratio * n):
            problems.append(f"forgetting set has {len(d_f)} of {n}")
        if sorted(np.concatenate([d_f.ids, d_r.ids]).tolist()) != list(range(n)):
            problems.append("forgetting and remaining sets do not partition the data")
        return problems

    def property_problems(self, per_seed):
        """The paper's over-forgetting effect, as `natmu check` states it:
        in at least 2 of 3 seeds, random relabeling drops FA more than 5
        points below the oracle, and natmu is closer to the oracle on FA,
        MIA and KL_avg."""
        tally = {"over-forgets": 0, "FA closer": 0, "KL lower": 0, "MIA closer": 0}
        for reports in per_seed.values():
            if len(reports) < len(METHODS):
                continue
            ret, amn, nat = (reports[m] for m in ("retrain", "amnesiac", "natmu"))
            tally["over-forgets"] += amn["FA"][0] < ret["FA"][0] - 5.0
            tally["FA closer"] += nat["FA"][2] < amn["FA"][2]
            tally["KL lower"] += nat["KL_avg"][0] < amn["KL_avg"][0]
            tally["MIA closer"] += nat["MIA"][2] < amn["MIA"][2]
        return [f"over-forgetting property: {k} in {v} of 3 seeds"
                for k, v in tally.items() if v < 2]


class SubclassSgd(RunWorkload):
    name = "subclass-sgd"
    class_wise = True
    SUPERCLASS_MAP = "0,0,1,1,2,2,3,3,4,4"
    PER_CLASS = 500

    def __init__(self, repo, work, bench_seed):
        super().__init__(repo, work, bench_seed)
        self.forget_class = bench_seed % 10

    def config(self):
        parser = configparser.ConfigParser()
        parser.read_dict({
            "dataset": {"kind": "synth", "k": "10", "per_class": str(self.PER_CLASS),
                        "test_per_class": "100", "height": "16", "width": "16",
                        "channels": "1", "spread": "0.9",
                        "superclass_map": self.SUPERCLASS_MAP},
            "pretrain": {"epochs": "30", "batch_size": "64", "base_lr": "0.01",
                         "weight_decay": "0.0005", "optimizer": "sgd"},
            "unlearn": {"epochs": "5", "batch_size": "64", "base_lr": "0.01",
                        "weight_decay": "0.0005", "optimizer": "sgd"},
            "forget": {"mode": "class", "class_index": str(self.forget_class),
                       "scope": "sub"},
            "run": {"seeds": "", "methods": ",".join(METHODS)},
            "method.natmu": {"n": str(NATMU_N), "delta": str(NATMU_DELTA),
                             "mask_family": "gradual"},
            "method.badteacher": {"temperature": "1.0"},
            "method.neggrad": {"ascent_coefficient": "0.01"},
        })
        return parser

    def split_problems(self, d_f, d_r, test) -> list[str]:
        problems = []
        mapping = np.array(self.SUPERCLASS_MAP.split(","), dtype=np.int64)
        if not (d_f.subclass_labels == self.forget_class).all() or len(d_f) != self.PER_CLASS:
            problems.append(f"forgetting set is not fine class {self.forget_class}")
        if (d_r.subclass_labels == self.forget_class).any():
            problems.append("remaining set holds the forgotten fine class")
        for ds in (d_f, d_r, test):
            if not (mapping[ds.subclass_labels] == ds.labels).all():
                problems.append("superclass labels disagree with the map")
        return problems


# ---------------------------------------------------------------------------
# the stage CLI


class StagesDifficult:
    """The documented stage commands for one seed, difficult-sample
    forgetting over UDS files; one operation per command.

    Its inputs are fixed (UDS seed and root seed 1, whatever the benchmark
    seed): it keeps the `evaluate --method natmu` fault as a counted
    failure, which must fail identically on every run.
    """

    name = "stages-difficult"
    SPANS = ()
    ROOT_SEED = 1
    RATIO = 0.05
    PER_CLASS = 200

    def __init__(self, repo: Path, work: Path, bench_seed: int):
        self.work = work

    def f(self, name) -> str:
        return str(self.work / name)

    def setup(self, natmu, tracer):
        cli = natmu.cli
        for split, per_class in (("train", self.PER_CLASS), ("test", 100)):
            code = _quiet(cli, ["dataset", "synth", "--out", self.f(f"{split}.uds"),
                                "--k", "10", "--per-class", str(per_class),
                                "--seed", str(self.ROOT_SEED), "--split", split])
            if code != 0:
                raise RuntimeError(f"natmu dataset synth --split {split} exited {code}")
        parser = configparser.ConfigParser()
        parser.read_dict({
            "dataset": {"kind": "uds", "train_path": self.f("train.uds"),
                        "test_path": self.f("test.uds")},
            "forget": {"mode": "difficult", "ratio": str(self.RATIO)},
            "run": {"seeds": str(self.ROOT_SEED), "methods": ",".join(METHODS)},
        })
        with open(self.f("exp.cfg"), "w", encoding="ascii") as fh:
            parser.write(fh)
        self.cfg = natmu.runner.load_config(self.f("exp.cfg"))
        self.outcome = Outcome()

    def commands(self):
        common = ["--config", self.f("exp.cfg"), "--seed", str(self.ROOT_SEED)]
        yield "pretrain", "pretrain_s", ["pretrain", *common, "--out", self.f("original.nmu"),
                                         "--trace", self.f("trace.json")]
        yield "build", "unlearn_s", ["build", *common, "--model", self.f("original.nmu"),
                                     "--variant", "natmu", "--n", str(NATMU_N),
                                     "--delta", str(NATMU_DELTA), "--out", self.f("finetune.uds"),
                                     "--provenance", self.f("prov.jsonl")]
        for method in METHODS:
            model = [] if method == "retrain" else ["--model", self.f("original.nmu")]
            yield (f"unlearn {method}", "retrain_s" if method == "retrain" else "unlearn_s",
                   ["unlearn", "--method", method, *common, *model,
                    "--out", self.f(f"{method}.nmu")])
        for method in METHODS:
            yield f"evaluate {method}", None, [
                "evaluate", *common, "--model", self.f(f"{method}.nmu"),
                "--retrain", self.f("retrain.nmu"), "--method", method,
                "--out", self.f(f"report_{method}.csv")]

    def run(self, natmu):
        self.codes = {}
        for name, stage, argv in self.commands():
            start = time.perf_counter()
            self.codes[name] = _quiet(natmu.cli, argv)
            if stage:
                self.outcome.timed(stage, name, start)
        return 0.0

    def check(self) -> Outcome:
        out = self.outcome
        for name, _, _ in self.commands():
            code = self.codes[name]
            if code != 0:
                out.op(name, [f"exited {code}"])
                continue
            try:
                reasons = self._check_command(name)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                reasons = [f"unreadable output: {exc!r}"]
            out.op(name, reasons)
        return out

    def _check_command(self, name) -> list[str]:
        kind, _, method = name.partition(" ")
        if kind == "pretrain":
            return self._check_pretrain()
        if kind == "build":
            return self._check_build()
        if kind == "unlearn":
            layers = checks.read_nmu(self.f(f"{method}.nmu"))
            (height, width, channels, k) = self.data["geometry"]
            ok = (layers[0][0].shape[1] == height * width * channels
                  and layers[-1][0].shape[0] == k
                  and all(np.isfinite(w).all() and np.isfinite(b).all() for w, b in layers))
            return [] if ok else ["checkpoint does not map pixels to classes or is not finite"]
        return self._check_evaluate(method)

    @functools.cached_property
    def data(self) -> dict:
        """The UDS files and the forgetting split, read and made here."""
        x, y, geometry = checks.read_uds(self.f("train.uds"))
        xt, yt, _ = checks.read_uds(self.f("test.uds"))
        trace = json.loads(Path(self.f("trace.json")).read_text())
        counts = np.asarray(trace["counts"])
        ids = np.asarray(trace["ids"])
        order = np.lexsort((ids, counts))
        forget = np.sort(ids[order[:round(self.RATIO * len(ids))]])
        keep = np.setdiff1d(np.arange(len(y)), forget)
        return dict(x=x, y=y, xt=xt, yt=yt, geometry=geometry, trace=trace, ids=ids,
                    counts=counts, forget=forget, keep=keep)

    def _check_pretrain(self) -> list[str]:
        d = self.data
        problems = []
        epochs = self.cfg.pretrain.epochs
        if d["trace"]["epochs"] != epochs or sorted(d["ids"].tolist()) != list(range(len(d["y"]))):
            problems.append("trace does not cover every training id once")
        if d["counts"].min() < 0 or d["counts"].max() > epochs:
            problems.append("trace counts outside [0, epochs]")
        logits = _logits(checks.read_nmu(self.f("original.nmu")), d["x"])
        top2 = np.sort(logits, axis=1)[:, -2:]
        sure = top2[:, 1] - top2[:, 0] >= checks.TIE_MARGIN
        right = logits.argmax(axis=1) == d["y"]
        by_id = np.empty_like(d["counts"])
        by_id[d["ids"]] = d["counts"]
        # the last epoch's verdict is part of every count
        if (by_id[sure & right] == 0).any() or (by_id[sure & ~right] == epochs).any():
            problems.append("trace counts contradict the final model's predictions")
        return problems

    def _check_build(self) -> list[str]:
        d = self.data
        fx, fy, _ = checks.read_uds(self.f("finetune.uds"))
        prov = [json.loads(line) for line in Path(self.f("prov.jsonl")).read_text().splitlines()]
        problems = []
        n_keep = len(d["keep"])
        if len(fy) != n_keep + NATMU_N * len(d["forget"]) or len(prov) != len(fy) - n_keep:
            return [f"{len(fy)} rows and {len(prov)} provenance lines"]
        if not (np.array_equal(fx[:n_keep], d["x"][d["keep"]])
                and np.array_equal(fy[:n_keep], d["y"][d["keep"]])):
            problems.append("fine-tuning set does not start with the remaining set")
        fids = np.array([p["forget_index"] for p in prov])
        if not np.array_equal(np.unique(fids), d["forget"]):
            problems.append("hybrids are not built from the difficult forgetting set")
        rids = np.array([p["remaining_index"] for p in prov])
        cats = np.array([p["category"] for p in prov])
        if np.isin(rids, d["forget"]).any() or not np.array_equal(d["y"][rids], cats):
            problems.append("hybrid category is not its remaining instance's label")
        if not np.array_equal(fy[n_keep:], cats) or (cats == d["y"][fids]).any():
            problems.append("hybrid labels differ from provenance or equal the true label")
        masks = checks.gradual_masks(*d["geometry"][:2], NATMU_DELTA)
        blend = np.stack([masks[p["mask_index"]].reshape(-1) for p in prov])
        want = d["x"][fids] * blend + d["x"][rids] * (1.0 - blend)
        if np.abs(fx[n_keep:] - want).max() > 1e-6:
            problems.append("hybrid pixels are not the gradual-mask blend")
        return problems + _ranking_problems(
            checks.read_nmu(self.f("original.nmu")), d["x"], d["y"], fids, cats)

    def _check_evaluate(self, method) -> list[str]:
        d = self.data
        k = d["geometry"][3]
        rows = checks.read_report(self.f(f"report_{method}.csv"))
        problems = checks.report_problems(f"evaluate {method}", rows,
                                          ["TA", "RA", "FA", "MIA"])
        if problems:
            return problems
        sets = {"TA": (d["xt"], d["yt"]), "RA": (d["x"][d["keep"]], d["y"][d["keep"]]),
                "FA": (d["x"][d["forget"]], d["y"][d["forget"]])}
        model = checks.read_nmu(self.f(f"{method}.nmu"))
        oracle = checks.read_nmu(self.f("retrain.nmu"))
        for metric, (x, y) in sets.items():
            for col, layers in ((0, model), (1, oracle)):
                lo, hi = checks.accuracy_range(_logits(layers, x), y)
                if not lo - checks.CSV_TOL <= rows[metric][col] <= hi + checks.CSV_TOL:
                    problems.append(f"{metric} {rows[metric][col]} outside [{lo:.6f}, {hi:.6f}]")
        if not checks.is_count_share(rows["MIA"][0], len(d["forget"])):
            problems.append(f"MIA {rows['MIA'][0]} is not a share of {len(d['forget'])}")
        kl = rows["KL_avg"][0]
        if method == "retrain" and kl != 0.0:
            problems.append(f"KL_avg {kl} for the oracle")
        elif method == "neggrad" and kl is not None:
            problems.append(f"KL_avg {kl} for a method that never relabels")
        elif method == "natmu":
            fx, fy, _ = checks.read_uds(self.f("finetune.uds"))
            n_keep = len(d["keep"])
            want = checks.kl_hard(_logits(oracle, fx[n_keep:]), fy[n_keep:], k)
            if kl is None or abs(kl - want) > 1e-5 + 1e-5 * want:
                problems.append(f"KL_avg {kl} reported, {want:.6f} recomputed from the "
                                "build output and the oracle checkpoint")
        elif method == "amnesiac":
            x_f = _logits(oracle, d["x"][d["forget"]])
            lo, hi = checks.kl_range_wrong_label(x_f, d["y"][d["forget"]], k)
            if kl is None or not lo - 1e-5 <= kl <= hi + 1e-5:
                problems.append(f"KL_avg {kl} outside [{lo:.6f}, {hi:.6f}] for wrong labels")
        elif method == "badteacher" and (kl is None or not np.isfinite(kl) or kl < 0):
            problems.append(f"KL_avg {kl} is not a finite divergence")
        return problems


def _ranking_problems(layers, x, y, fids, cats) -> list[str]:
    """Each forgetting sample's hybrids take the original model's top-n
    categories other than its own label (rows near a tie are skipped)."""
    problems = 0
    for fid in np.unique(fids):
        logits = checks.mlp_logits(layers, x[fid:fid + 1])[0]
        logits[y[fid]] = -np.inf
        ranked = np.argsort(-logits, kind="stable")
        if logits[ranked[NATMU_N - 1]] - logits[ranked[NATMU_N]] < checks.TIE_MARGIN:
            continue
        problems += set(ranked[:NATMU_N].tolist()) != set(cats[fids == fid].tolist())
    return [f"{problems} forgetting samples got categories outside the "
            f"original model's top {NATMU_N}"] if problems else []


WORKLOADS = {w.name: w for w in (Desk, SubclassSgd, StagesDifficult)}
