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
import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_args

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
from .nn import Model, TrainConfig, TrainingTrace, init_model, train
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


# field type -> the configparser getter that reads it
_GETTERS = {int: "getint", float: "getfloat", bool: "getboolean", str: "get"}


def _read_section(section, default):
    """`default` with each field the section sets, read at the field's type;
    a missing key keeps its default."""
    values = {}
    for f in fields(default):
        if f.name in section and f.name != "seed":  # seeds fan out from the run seed
            kind = next(t for t in (f.type, *get_args(f.type)) if t in _GETTERS)
            values[f.name] = getattr(section, _GETTERS[kind])(f.name)
    return replace(default, **values)


def _parse_method_params(method: str, section) -> MethodParams:
    if method not in METHOD_NAMES:
        raise ConfigError(f"unknown method section [method.{method}]; "
                          f"expected one of {METHOD_NAMES}")
    unknown = sorted(set(section) - {f.name for f in fields(MethodParams)})
    if unknown:
        raise ConfigError(f"unknown keys in [method.{method}]: {', '.join(unknown)}")
    return _read_section(section, MethodParams())


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
            cfg.synth = _read_section(sec, SynthSpec())
        elif kind == "uds":
            cfg.synth = None
            cfg.train_path = sec.get("train_path")
            cfg.test_path = sec.get("test_path")
        else:
            raise ConfigError(f"unknown dataset kind {kind!r}")
        if "superclass_map" in sec:
            cfg.superclass_map = [int(x) for x in sec["superclass_map"].split(",")]
    if "pretrain" in parser:
        cfg.pretrain = _read_section(parser["pretrain"], cfg.pretrain)
    if "unlearn" in parser:
        cfg.unlearn = _read_section(parser["unlearn"], cfg.unlearn)
    if "forget" in parser:
        sec = parser["forget"]
        cfg.forget_mode = sec.get("mode", cfg.forget_mode)
        cfg.forget_ratio = sec.getfloat("ratio", cfg.forget_ratio)
        cfg.forget_class = sec.getint("class_index", cfg.forget_class)
        cfg.forget_scope = sec.get("scope", cfg.forget_scope)
    if "run" in parser:
        sec = parser["run"]
        if "seeds" in sec:
            cfg.seeds = tuple(int(x) for x in sec["seeds"].split(","))
        if "methods" in sec:
            cfg.methods = tuple(m.strip() for m in sec["methods"].split(","))
        cfg.output_dir = sec.get("output_dir", cfg.output_dir)
    for name in parser.sections():
        if name.startswith("method."):
            method = name.split(".", 1)[1]
            cfg.method_params[method] = _parse_method_params(method, parser[name])
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


@dataclass
class PreparedSeed:
    """A root seed's data, split and stage seeds, as `run` and the stage CLI use them."""

    config: ExperimentConfig
    root: int
    train: Dataset
    test: Dataset
    spec: ForgettingSpec
    d_f: Dataset
    d_r: Dataset
    stage_seeds: dict
    trace: TrainingTrace | None = None
    model_o: Model | None = None

    @property
    def original(self) -> Model:
        """The pretrained model; trained on first use unless the split needed it."""
        if self.model_o is None:
            self.model_o, _ = pretrain_model(self.config, self.train, self.root)
        return self.model_o

    def method_seed(self, method: str) -> int:
        return derive_seed(self.root, "method", method)

    def request(self, method: str, model: Model | None = None,
                epoch_callback=None) -> UnlearnRequest:
        """`method`'s unlearning request; `model` defaults to the original."""
        return UnlearnRequest(
            model=self.original if model is None else model, d_f=self.d_f, d_r=self.d_r,
            config=self.config.unlearn, params=self.config.params_for(method),
            seed=self.method_seed(method), epoch_callback=epoch_callback)

    def retrain(self, epoch_callback=None):
        """The retrain oracle on the remaining set: (model, audit)."""
        return retrain(self.d_r, self.config.pretrain.with_seed(self.method_seed("retrain")),
                       forbidden_ids=self.d_f.ids, epoch_callback=epoch_callback)


def prepare_seed(config: ExperimentConfig, root: int,
                 stage=lambda name: contextlib.nullcontext(),
                 with_trace: bool = False) -> PreparedSeed:
    """Data, forgetting split and stage seeds of one root seed. The original
    model is pretrained here, with its trace, when the split ranks samples by
    it (difficult mode) or `with_trace` is set; otherwise on first use.
    `stage(name)` is a context manager around each step."""
    seeds = {name: derive_seed(root, name) for name in ("dataset", "pretrain", "forget")}
    with stage("dataset"):
        train_ds, test_ds = materialize_data(config, seeds["dataset"])
    model_o = trace = None
    if with_trace or config.forget_mode == "difficult":
        with stage("pretrain"):
            model_o, trace = pretrain_model(config, train_ds, root, with_trace=True)
    with stage("forget"):
        spec = ForgettingSpec(mode=config.forget_mode, ratio=config.forget_ratio,
                              class_index=config.forget_class, scope=config.forget_scope,
                              seed=seeds["forget"])
        d_f, d_r = split_forget(train_ds, spec, trace)
    return PreparedSeed(config, root, train_ds, test_ds, spec, d_f, d_r, seeds,
                        trace, model_o)


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6f}"


def write_report_csv(path: Path, report: MetricsReport, reference: MetricsReport) -> dict:
    """Write the report's rows; returns their values and gaps by metric name."""
    values, ref = dict(report.gap_metrics()), dict(reference.gap_metrics())
    gaps = metric_gaps(report, reference)
    values["KL_avg"], ref["KL_avg"] = report.kl, 0.0
    gaps["KL_avg"] = None if report.kl is None else abs(report.kl - 0.0)
    lines = ["metric,value,retrain_value,gap"]
    for name, value in values.items():
        lines.append(f"{name},{_fmt(value)},{_fmt(ref[name])},{_fmt(gaps[name])}")
    values["Avg.Gap"] = gaps["Avg.Gap"] = avg_gap(report, reference)
    lines.append(f"Avg.Gap,,,{_fmt(gaps['Avg.Gap'])}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return {"values": values, "gaps": gaps}


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
    failing = ["setup"]  # the stage a failure is reported at

    @contextlib.contextmanager
    def stage(name):
        """Time `name` into the manifest (summed over entries); a failure inside
        reports it."""
        failing[0] = name
        t0 = time.perf_counter()
        yield
        clock = manifest["wall_clock"]
        clock[name] = clock.get(name, 0.0) + time.perf_counter() - t0

    try:
        per_seed_rows = {}
        for root in config.seeds:
            per_seed_rows[root] = _run_one_seed(config, root, out_root, manifest, stage)
        with stage("aggregate"):
            class_wise = config.forget_mode == "class"
            methods = list(dict.fromkeys(["retrain", *config.methods]))
            rows = _aggregate_rows(per_seed_rows, methods, class_wise)
            agg_path = out_root / "aggregate.csv"
            agg_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            manifest["files"].append(str(agg_path.relative_to(out_root)))
        manifest["status"] = "complete"
    except Exception as exc:
        manifest["status"] = f"failed at {failing[0]}: {exc}"
        _write_manifest(out_root, manifest)
        raise
    _write_manifest(out_root, manifest)
    return manifest


def _write_manifest(out_root: Path, manifest: dict) -> None:
    (out_root / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_one_seed(config: ExperimentConfig, root: int, out_root: Path,
                  manifest: dict, run_stage) -> dict:
    seed_dir = out_root / f"seed_{root}"
    seed_dir.mkdir(parents=True, exist_ok=True)

    def stage(name):
        return run_stage(f"seed{root}/{name}")

    prep = prepare_seed(config, root, stage)
    d_f, d_r = prep.d_f, prep.d_r
    with stage("pretrain"):
        prep.original  # trained here, so no method's clock counts it

    curves = ["method,epoch,fa,ra"]

    def curve_recorder(method):
        def cb(epoch, model):
            curves.append(f"{method},{epoch},{accuracy(model, d_f):.6f},"
                          f"{accuracy(model, d_r):.6f}")
        return cb

    with stage("method:retrain"):
        model_r, audit = prep.retrain(curve_recorder("retrain"))
    manifest["retrain_audit"][str(root)] = audit

    reports = {"retrain": evaluate_model(model_r, d_r, d_f, prep.test, prep.spec, kl=0.0)}
    for method in config.methods:
        if method == "retrain":
            continue
        with stage(f"method:{method}"):
            request = prep.request(method, epoch_callback=curve_recorder(method))
            model_u = UNLEARN_METHODS[method](request)
            d_ul = unlearning_dataset(method, request)  # the set the method built
            kl = None if d_ul is None else kl_avg(model_r, d_ul)
            reports[method] = evaluate_model(model_u, d_r, d_f, prep.test, prep.spec, kl=kl)

    rows = {}
    with stage("reports"):
        for method, report in reports.items():
            path = seed_dir / f"report_{method}.csv"
            rows[method] = write_report_csv(path, report, reports["retrain"])
            manifest["files"].append(str(path.relative_to(out_root)))
        curve_path = seed_dir / "curves.csv"
        curve_path.write_text("\n".join(curves) + "\n", encoding="ascii")
        manifest["files"].append(str(curve_path.relative_to(out_root)))

    manifest["stage_seeds"][str(root)] = {**prep.stage_seeds, **{
        f"method:{m}": prep.method_seed(m) for m in ("retrain", *config.methods)}}
    return rows
