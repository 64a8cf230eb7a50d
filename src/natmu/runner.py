"""Experiment orchestration: config parsing, seeded pipeline execution,
and deterministic CSV report emission.

Pipeline per root seed: materialize data, pretrain, select the forgetting
set, retrain the oracle, run every requested method, evaluate everything
against the retrained reference. Stage seeds derive from (root seed, stage
name), so adding a method never perturbs the others. Output files are a
pure function of (config, seeds, code version); wall-clock timings live
only in the manifest, never in CSVs.
"""

import configparser
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    Dataset,
    ForgettingSpec,
    forgetting_test_subset,
    load_raw,
    split_forget,
    synth_blobs,
    to_superclass,
)
from .errors import ConfigError, ValidationError
from .metrics import (
    MetricsReport,
    accuracy,
    avg_gap,
    kl_avg,
    metric_gaps,
    mia_fit,
    mia_ratio,
)
from .methods import (
    METHOD_NAMES,
    UNLEARN_METHODS,
    MethodParams,
    UnlearnRequest,
    default_dims,
    retrain,
    unlearning_dataset,
)
from .nn import Model, TrainConfig, init_model, train
from .seeding import derive_seed


@dataclass
class SynthSpec:
    k: int = 10
    per_class: int = 500
    test_per_class: int = 100
    height: int = 16
    width: int = 16
    channels: int = 1
    spread: float | None = None  # None -> data.DEFAULT_SPREAD


@dataclass
class ExperimentConfig:
    synth: SynthSpec | None = field(default_factory=SynthSpec)
    train_path: str | None = None
    test_path: str | None = None
    superclass_map: list[int] | None = None
    pretrain: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=30, batch_size=64, base_lr=1e-3, weight_decay=5e-4, optimizer="adamw"))
    unlearn: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=5, batch_size=64, base_lr=3e-3, weight_decay=5e-4, optimizer="adamw"))
    forget_mode: str = "random"
    forget_ratio: float = 0.01
    forget_class: int = 0
    forget_scope: str = "full"
    methods: tuple = ("retrain",)
    method_params: dict = field(default_factory=dict)
    seeds: tuple = (1,)
    output_dir: str = "out"

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if not self.methods:
            raise ConfigError("need at least one method")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ConfigError(f"unknown method {m!r}; expected one of {METHOD_NAMES}")
        if self.synth is None and not (self.train_path and self.test_path):
            raise ConfigError("dataset must be synth parameters or UDS paths")
        if self.train_path and not Path(self.train_path).exists():
            raise ConfigError(f"train dataset not found: {self.train_path}")
        if self.test_path and not Path(self.test_path).exists():
            raise ConfigError(f"test dataset not found: {self.test_path}")
        if self.forget_mode not in ("random", "class", "difficult"):
            raise ConfigError(f"unknown forgetting mode {self.forget_mode!r}")

    def params_for(self, method: str) -> MethodParams:
        return self.method_params.get(method, MethodParams())

    def semantic_dict(self) -> dict:
        d = {
            "synth": None if self.synth is None else vars(self.synth),
            "train_path": self.train_path,
            "test_path": self.test_path,
            "superclass_map": self.superclass_map,
            "pretrain": _config_dict(self.pretrain),
            "unlearn": _config_dict(self.unlearn),
            "forget": [self.forget_mode, self.forget_ratio, self.forget_class,
                       self.forget_scope],
            "methods": list(self.methods),
            "method_params": {m: vars(p) for m, p in sorted(self.method_params.items())},
            "seeds": list(self.seeds),
        }
        return d

    def hash(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _config_dict(cfg: TrainConfig) -> dict:
    d = vars(cfg).copy()
    d.pop("seed")  # seeds fan out from the run seed, not the section
    return d


# ---------------------------------------------------------------------------
# config file parsing


def _parse_train_section(section) -> TrainConfig:
    return TrainConfig(
        epochs=section.getint("epochs", 5),
        batch_size=section.getint("batch_size", 64),
        base_lr=section.getfloat("base_lr", 1e-3),
        weight_decay=section.getfloat("weight_decay", 0.0),
        optimizer=section.get("optimizer", "adamw"),
    )


def _parse_method_params(section) -> MethodParams:
    kwargs = {}
    for key in ("n", "cutmix_edge"):
        if key in section:
            kwargs[key] = section.getint(key)
    for key in ("delta", "temperature", "ascent_coefficient"):
        if key in section:
            kwargs[key] = section.getfloat(key)
    for key in ("mask_family", "variant"):
        if key in section:
            kwargs[key] = section.get(key)
    for key in ("shuffle_masks", "reinit_final_layer"):
        if key in section:
            kwargs[key] = section.getboolean(key)
    return MethodParams(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = _config_from_parser(parser)
    except (ValueError, ValidationError) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    cfg.validate()
    return cfg


def _config_from_parser(parser) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if "dataset" in parser:
        sec = parser["dataset"]
        kind = sec.get("kind", "synth")
        if kind == "synth":
            spread = sec.getfloat("spread") if "spread" in sec else None
            cfg.synth = SynthSpec(
                k=sec.getint("k", 10),
                per_class=sec.getint("per_class", 500),
                test_per_class=sec.getint("test_per_class", 100),
                height=sec.getint("height", 16),
                width=sec.getint("width", 16),
                channels=sec.getint("channels", 1),
                spread=spread,
            )
        elif kind == "uds":
            cfg.synth = None
            cfg.train_path = sec.get("train_path")
            cfg.test_path = sec.get("test_path")
        else:
            raise ConfigError(f"unknown dataset kind {kind!r}")
        if "superclass_map" in sec:
            cfg.superclass_map = [int(x) for x in sec["superclass_map"].split(",")]
    if "pretrain" in parser:
        cfg.pretrain = _parse_train_section(parser["pretrain"])
    if "unlearn" in parser:
        cfg.unlearn = _parse_train_section(parser["unlearn"])
    if "forget" in parser:
        sec = parser["forget"]
        cfg.forget_mode = sec.get("mode", "random")
        cfg.forget_ratio = sec.getfloat("ratio", 0.01)
        cfg.forget_class = sec.getint("class_index", 0)
        cfg.forget_scope = sec.get("scope", "full")
    if "run" in parser:
        sec = parser["run"]
        if "seeds" in sec:
            cfg.seeds = tuple(int(x) for x in sec["seeds"].split(","))
        if "methods" in sec:
            cfg.methods = tuple(m.strip() for m in sec["methods"].split(","))
        cfg.output_dir = sec.get("output_dir", cfg.output_dir)
    for name in parser.sections():
        if name.startswith("method."):
            cfg.method_params[name.split(".", 1)[1]] = _parse_method_params(parser[name])
    return cfg


# ---------------------------------------------------------------------------
# pipeline


def materialize_data(config: ExperimentConfig, data_seed: int) -> tuple[Dataset, Dataset]:
    if config.synth is not None:
        s = config.synth
        kwargs = {} if s.spread is None else {"spread": s.spread}
        train_ds = synth_blobs(s.k, s.per_class, s.height, s.width, s.channels,
                               seed=data_seed, split="train", **kwargs)
        test_ds = synth_blobs(s.k, s.test_per_class, s.height, s.width, s.channels,
                              seed=data_seed, split="test", **kwargs)
    else:
        train_ds = load_raw(config.train_path, split="train")
        test_ds = load_raw(config.test_path, split="test")
    if config.superclass_map is not None:
        train_ds = to_superclass(train_ds, config.superclass_map)
        test_ds = to_superclass(test_ds, config.superclass_map)
    return train_ds, test_ds


def pretrain_model(config: ExperimentConfig, train_ds: Dataset, root_seed: int,
                   with_trace: bool = False):
    seed = derive_seed(root_seed, "pretrain")
    model = init_model(default_dims(train_ds.dim, train_ds.k), derive_seed(seed, "init"))
    return train(model, train_ds, config.pretrain.with_seed(seed),
                 trace_correctness=with_trace)


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6f}"


def write_report_csv(path: Path, report: MetricsReport, reference: MetricsReport):
    gaps = metric_gaps(report, reference)
    ref = dict(reference.gap_metrics())
    lines = ["metric,value,retrain_value,gap"]
    for name, value in report.gap_metrics():
        lines.append(f"{name},{_fmt(value)},{_fmt(ref[name])},{_fmt(gaps[name])}")
    kl_gap = None if report.kl is None else abs(report.kl - 0.0)
    lines.append(f"KL_avg,{_fmt(report.kl)},{_fmt(0.0)},{_fmt(kl_gap)}")
    lines.append(f"Avg.Gap,,,{_fmt(avg_gap(report, reference))}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _aggregate_rows(per_seed: dict, methods, class_wise: bool):
    names = ["TA", "RA"] + (["FATrain", "FATest"] if class_wise else ["FA"]) \
        + ["MIA", "KL_avg", "Avg.Gap"]
    rows = ["method,metric,mean,std,gap_mean,formatted"]
    for method in methods:
        for name in names:
            values = [per_seed[s][method]["values"][name] for s in per_seed]
            gaps = [per_seed[s][method]["gaps"][name] for s in per_seed]
            if any(v is None for v in values):
                rows.append(f"{method},{name},,,,")
                continue
            mean, std = float(np.mean(values)), float(np.std(values))
            gmean = float(np.mean(gaps))
            rows.append(f"{method},{name},{mean:.6f},{std:.6f},{gmean:.6f},"
                        f"{mean:.2f}±{std:.2f}({gmean:.2f})")
    return rows


def evaluate_model(model: Model, d_r: Dataset, d_f: Dataset, test_ds: Dataset,
                   spec: ForgettingSpec | None = None, kl: float | None = None) -> MetricsReport:
    """Metrics of one model against the standard splits."""
    clf = mia_fit(model, d_r, test_ds)
    fa = accuracy(model, d_f)
    report = MetricsReport(
        ta=accuracy(model, test_ds),
        ra=accuracy(model, d_r),
        fa=fa,
        mia=mia_ratio(clf, model, d_f),
        kl=kl,
    )
    if spec is not None and spec.mode == "class":
        report.fa_train = fa
        report.fa_test = accuracy(model, forgetting_test_subset(test_ds, spec))
    return report


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Execute the full pipeline; returns the manifest dict.

    Writes per-seed report and curve CSVs, a cross-seed aggregate, and
    manifest.json. On failure the partial manifest is persisted with the
    failing stage before the error propagates.
    """
    config.validate()
    out_root = Path(out_dir or os.environ.get("OUTPUT_DIR", config.output_dir))
    out_root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config_hash": config.hash(),
        "version": __version__,
        "seeds": list(config.seeds),
        "stage_seeds": {},
        "wall_clock": {},
        "files": [],
        "retrain_audit": {},
        "status": "running",
    }
    stage_box = ["setup"]
    try:
        per_seed_rows = {}
        for root in config.seeds:
            per_seed_rows[root] = _run_one_seed(config, root, out_root, manifest,
                                                stage_box)
        stage_box[0] = "aggregate"
        t0 = time.perf_counter()
        class_wise = config.forget_mode == "class"
        methods = list(dict.fromkeys(["retrain", *config.methods]))
        rows = _aggregate_rows(per_seed_rows, methods, class_wise)
        agg_path = out_root / "aggregate.csv"
        agg_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        manifest["files"].append(str(agg_path.relative_to(out_root)))
        manifest["wall_clock"]["aggregate"] = time.perf_counter() - t0
        manifest["status"] = "complete"
    except Exception as exc:
        manifest["status"] = f"failed at {stage_box[0]}: {exc}"
        _write_manifest(out_root, manifest)
        raise
    _write_manifest(out_root, manifest)
    return manifest


def _write_manifest(out_root: Path, manifest: dict) -> None:
    (out_root / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_one_seed(config: ExperimentConfig, root: int, out_root: Path,
                  manifest: dict, stage_box: list) -> dict:
    seed_dir = out_root / f"seed_{root}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    stage_seeds = {
        "dataset": derive_seed(root, "dataset"),
        "pretrain": derive_seed(root, "pretrain"),
        "forget": derive_seed(root, "forget"),
    }
    clocks = {}

    stage_box[0] = f"seed{root}/dataset"
    t0 = time.perf_counter()
    train_ds, test_ds = materialize_data(config, stage_seeds["dataset"])
    clocks["dataset"] = time.perf_counter() - t0

    stage_box[0] = f"seed{root}/pretrain"
    t0 = time.perf_counter()
    with_trace = config.forget_mode == "difficult"
    model_o, trace = pretrain_model(config, train_ds, root, with_trace=with_trace)
    clocks["pretrain"] = time.perf_counter() - t0

    stage_box[0] = f"seed{root}/forget"
    spec = ForgettingSpec(mode=config.forget_mode, ratio=config.forget_ratio,
                          class_index=config.forget_class, scope=config.forget_scope,
                          seed=stage_seeds["forget"])
    d_f, d_r = split_forget(train_ds, spec, trace)

    curves = ["method,epoch,fa,ra"]

    def curve_recorder(method):
        def cb(epoch, model):
            curves.append(f"{method},{epoch},{accuracy(model, d_f):.6f},"
                          f"{accuracy(model, d_r):.6f}")
        return cb

    stage_box[0] = f"seed{root}/method:retrain"
    t0 = time.perf_counter()
    retrain_seed = derive_seed(root, "method", "retrain")
    stage_seeds["method:retrain"] = retrain_seed
    model_r, audit = retrain(d_r, config.pretrain.with_seed(retrain_seed),
                             forbidden_ids=d_f.ids, epoch_callback=curve_recorder("retrain"))
    clocks["method:retrain"] = time.perf_counter() - t0
    manifest["retrain_audit"][str(root)] = audit

    reports = {"retrain": evaluate_model(model_r, d_r, d_f, test_ds, spec, kl=0.0)}
    for method in config.methods:
        if method == "retrain":
            continue
        stage_box[0] = f"seed{root}/method:{method}"
        t0 = time.perf_counter()
        seed_m = derive_seed(root, "method", method)
        stage_seeds[f"method:{method}"] = seed_m
        request = UnlearnRequest(
            model=model_o, d_f=d_f, d_r=d_r,
            config=config.unlearn, params=config.params_for(method),
            seed=seed_m, epoch_callback=curve_recorder(method))
        model_u = UNLEARN_METHODS[method](request)
        d_ul = unlearning_dataset(method, request)  # the set the method built
        kl = None if d_ul is None else kl_avg(model_r, d_ul)
        reports[method] = evaluate_model(model_u, d_r, d_f, test_ds, spec, kl=kl)
        clocks[f"method:{method}"] = time.perf_counter() - t0

    stage_box[0] = f"seed{root}/reports"
    rows = {}
    for method, report in reports.items():
        path = seed_dir / f"report_{method}.csv"
        write_report_csv(path, report, reports["retrain"])
        manifest["files"].append(str(path.relative_to(out_root)))
        values = dict(report.gap_metrics())
        values["KL_avg"] = report.kl
        values["Avg.Gap"] = avg_gap(report, reports["retrain"])
        gaps = metric_gaps(report, reports["retrain"])
        gaps["KL_avg"] = None if report.kl is None else abs(report.kl)
        gaps["Avg.Gap"] = values["Avg.Gap"]
        rows[method] = {"values": values, "gaps": gaps}

    curve_path = seed_dir / "curves.csv"
    curve_path.write_text("\n".join(curves) + "\n", encoding="ascii")
    manifest["files"].append(str(curve_path.relative_to(out_root)))

    manifest["stage_seeds"][str(root)] = stage_seeds
    for name, value in clocks.items():
        manifest["wall_clock"][f"seed{root}:{name}"] = value
    return rows
