"""Experiment orchestration: config parsing, seeded pipeline execution,
and deterministic CSV report emission.

Pipeline per root seed: materialize data, pretrain, select the forgetting
set (`prepare_seed`); then the retrain oracle and each method take the two
steps `run` and the stage commands share: `PreparedSeed.unlearn` trains a
model and `PreparedSeed.report` evaluates it: an ordered mapping of percent
metrics by name (`evaluate_model`), with the naturalness KL beside it, that
`write_report_csv` scores against the retrained oracle's mapping.
Stage seeds derive from (root seed, stage name), so adding a method never
perturbs the others. Output files are a pure function of (config, seeds,
code version); wall-clock timings live only in the manifest, never in CSVs.
"""

import configparser
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import BLAS_THREADS, __version__
from .data import (
    DEFAULT_SPREAD,
    Dataset,
    ForgettingSpec,
    check_synth,
    forget_count,
    forgetting_test_subset,
    load_raw,
    split_forget,
    synth_blobs,
    to_superclass,
)
from .errors import ConfigError, MissingTraceError, ValidationError
from .metrics import (
    accuracy,
    accuracy_of_logits,
    avg_gap,
    entropies_of_logits,
    kl_avg,
    metric_gaps,
    mia_fit,
    mia_ratio,
)
from .methods import (
    METHOD_NAMES,
    SETS_FROM_MODEL,
    UNLEARN_METHODS,
    MethodParams,
    UnlearnRequest,
    default_dims,
    retrain,
    unlearning_dataset,
)
from .nn import (
    Model,
    TrainConfig,
    init_model,
    load_model,
    predict_logits,
    save_model,
    train,
)
from .seeding import derive_seed


@dataclass
class SynthSpec:
    k: int = 10
    per_class: int = 500
    test_per_class: int = 100
    height: int = 16
    width: int = 16
    channels: int = 1
    spread: float = DEFAULT_SPREAD


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
    methods: tuple[str, ...] = ("retrain",)
    method_params: dict[str, MethodParams] = field(default_factory=dict)
    seeds: tuple[int, ...] = (1,)
    output_dir: str = "out"

    def validate(self) -> None:
        """Every check a run makes before any data is made or model trained."""
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"need one or more distinct seeds, got {list(self.seeds)}")
        if not self.methods or len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"need one or more distinct methods, got {list(self.methods)}")
        for m in (*self.methods, *self.method_params):
            if m not in METHOD_NAMES:
                raise ConfigError(f"unknown method {m!r}; expected one of {METHOD_NAMES}")
        if self.synth is not None:
            s = self.synth
            check_synth(s.k, s.height, s.width, s.channels, s.spread,
                        per_class=s.per_class, test_per_class=s.test_per_class)
            k = s.k if self.superclass_map is None else max(self.superclass_map, default=0) + 1
            n = self.params_for("natmu").n
            if "natmu" in (*self.methods, *self.method_params) and n > k - 1:
                raise ConfigError(f"[method.natmu] n = {n} exceeds K-1 = {k - 1}, "
                                  "the categories a hybrid can take")
        paths = [path for path in (self.train_path, self.test_path) if path]
        if len(paths) != (2 if self.synth is None else 0):
            raise ConfigError("a synth dataset takes no train_path or test_path; "
                              "kind = uds needs both")
        for path in paths:
            if not Path(path).exists():
                raise ConfigError(f"dataset not found: {path}")
        spec = self.forget_spec()
        if self.synth is not None and spec.mode != "class":
            forget_count(spec.ratio, self.synth.k * self.synth.per_class)

    def forget_spec(self, seed: int = 0) -> ForgettingSpec:
        return ForgettingSpec(mode=self.forget_mode, ratio=self.forget_ratio,
                              class_index=self.forget_class, scope=self.forget_scope,
                              seed=seed)

    def params_for(self, method: str) -> MethodParams:
        return self.method_params.get(method, MethodParams())

    def semantic_dict(self) -> dict:
        """Every field but the output directory; training seeds fan out from
        the run seeds, so the train sections carry none."""
        d = asdict(self)
        del d["output_dir"], d["pretrain"]["seed"], d["unlearn"]["seed"]
        return d

    def hash(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# config file parsing


# section -> key -> ExperimentConfig field; [dataset] also takes `kind` and,
# under kind = synth, SynthSpec's fields
_EXPERIMENT_KEYS = {
    "dataset": {"train_path": "train_path", "test_path": "test_path",
                "superclass_map": "superclass_map"},
    "forget": {"mode": "forget_mode", "ratio": "forget_ratio",
               "class_index": "forget_class", "scope": "forget_scope"},
    "run": {"seeds": "seeds", "methods": "methods", "output_dir": "output_dir"},
}
_SECTIONS = ("pretrain", "unlearn", *_EXPERIMENT_KEYS)


def _value(text: str, kind):
    """`text` read at field type `kind`; `X | None` reads as X, a list or
    tuple as comma-separated items."""
    args = [a for a in get_args(kind) if a not in (type(None), Ellipsis)]
    if get_origin(kind) in (list, tuple):
        return get_origin(kind)(_value(item.strip(), args[0]) for item in text.split(","))
    if args:
        return _value(text, args[0])
    if kind is bool:
        if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"not a boolean: {text!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    return kind(text)


def _take(section: dict, target, keys: dict | None = None):
    """`target` with each field that `section` sets through `keys` (key ->
    field; default: every field by its own name), read at the field's type.
    The keys read leave `section`, so what stays there is unknown."""
    types = {f.name: f.type for f in fields(target)}
    keys = keys or {name: name for name in types if name != "seed"}  # seeds fan out from [run]
    values = {}
    for key in [key for key in keys if key in section]:
        text = section.pop(key)
        try:
            values[keys[key]] = _value(text, types[keys[key]])
        except ValueError as exc:
            raise ConfigError(f"{key} = {text}: {exc}") from exc
    return replace(target, **values)


def load_config(path: str) -> ExperimentConfig:
    """The experiment in the config file at `path`, checked in full: an
    unknown section or key, or a value `validate` refuses, is a ConfigError."""
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    # `;` starts a comment anywhere; no section lends the others defaults,
    # so a [DEFAULT] section is unknown like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), default_section="")
    try:
        parser.read(path, encoding="utf-8")
        cfg = _config_from_sections({name: dict(parser[name]) for name in parser.sections()})
        cfg.validate()
    except (configparser.Error, ValueError, ValidationError) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    return cfg


def _config_from_sections(sections: dict) -> ExperimentConfig:
    for name in sections:
        if name not in _SECTIONS and not name.startswith("method."):
            raise ConfigError(f"unknown section [{name}]")
    cfg = ExperimentConfig()
    dataset = sections.get("dataset", {})
    kind = dataset.pop("kind", "synth")
    if kind not in ("synth", "uds"):
        raise ConfigError(f"unknown dataset kind {kind!r}")
    cfg.synth = _take(dataset, cfg.synth) if kind == "synth" else None
    for name, keys in _EXPERIMENT_KEYS.items():
        cfg = _take(sections.get(name, {}), cfg, keys)
    cfg.pretrain = _take(sections.get("pretrain", {}), cfg.pretrain)
    cfg.unlearn = _take(sections.get("unlearn", {}), cfg.unlearn)
    for name, section in sections.items():
        if name.startswith("method."):
            cfg.method_params[name[len("method."):]] = _take(section, MethodParams())
    unknown = [f"[{name}] {key}" for name, section in sections.items() for key in section]
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    return cfg


# ---------------------------------------------------------------------------
# pipeline


def materialize_data(config: ExperimentConfig, data_seed: int) -> tuple[Dataset, Dataset]:
    if config.synth is not None:
        s = config.synth
        train_ds = synth_blobs(s.k, s.per_class, s.height, s.width, s.channels, s.spread,
                               seed=data_seed, split="train")
        test_ds = synth_blobs(s.k, s.test_per_class, s.height, s.width, s.channels, s.spread,
                              seed=data_seed, split="test")
    else:
        train_ds = load_raw(config.train_path)
        test_ds = load_raw(config.test_path)
    if config.superclass_map is not None:
        train_ds = to_superclass(train_ds, config.superclass_map)
        test_ds = to_superclass(test_ds, config.superclass_map)
    return train_ds, test_ds


def pretrain_model(config: ExperimentConfig, train_ds: Dataset, root_seed: int,
                   with_trace: bool = False) -> tuple[Model, np.ndarray | None]:
    """The original model of `root_seed` and, with `with_trace`, its trace:
    per training row, in row order, the number of epochs after which the
    model classified the row right (uint32; None without `with_trace`)."""
    seed = derive_seed(root_seed, "pretrain")
    model = init_model(default_dims(train_ds.dim, train_ds.k), derive_seed(seed, "init"))
    counts = np.zeros(len(train_ds), dtype=np.uint32) if with_trace else None

    def count_correct(epoch, current):
        counts[predict_logits(current, train_ds.pixels).argmax(axis=1) == train_ds.labels] += 1

    model = train(model, train_ds, config.pretrain.with_seed(seed),
                  epoch_callback=count_correct if with_trace else None)
    return model, counts


# In difficult mode the split ranks samples by the pretrain's trace. Every
# checkpoint `PreparedSeed.save` writes gets the record of that trace beside
# it, and `prepare_seed` given checkpoints reads the split back from there.
# An unlearned model's record also names the checkpoint it started from, so
# the original model is loaded rather than pretrained again.
RECORD_SUFFIX = ".trace.json"


def _trace_key(config: ExperimentConfig, root: int, train_ds: Dataset) -> dict:
    """What the pretrain's trace is a function of: the root seed, the resolved
    [pretrain] section and the training set (its hash and its ids)."""
    digest = hashlib.sha256(json.dumps([len(train_ds), train_ds.height, train_ds.width,
                                        train_ds.channels, train_ds.k]).encode())
    digest.update(train_ds.pixels.astype("<f4", copy=False).tobytes())
    digest.update(train_ds.labels.astype("<i8", copy=False).tobytes())
    return {"seed": root, "pretrain": config.semantic_dict()["pretrain"],
            "data_sha256": digest.hexdigest(), "ids": train_ds.ids.tolist()}


def _file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_source(path: str, source) -> str:
    """The checkpoint named by the `source` key of the trace record at
    `path`: it must exist and hash as recorded, or a ValidationError names
    the record and the key."""
    if not (isinstance(source, dict) and isinstance(source.get("path"), str)
            and isinstance(source.get("sha256"), str)):
        raise ValidationError(f"trace record {path}: source must hold a path and a sha256")
    checkpoint = Path(path).parent / source["path"]
    try:
        digest = _file_sha256(checkpoint)
    except OSError as exc:  # a missing file too
        raise ValidationError(f"trace record {path}: source unreadable: {exc}") from exc
    if digest != source["sha256"]:
        raise ValidationError(f"trace record {path}: source {checkpoint} does not match "
                              f"its sha256; the checkpoint changed after the record")
    return str(checkpoint)


def _read_trace_records(paths, key: dict) -> tuple[np.ndarray, str | None]:
    """The trace counts in the trace records at `paths` (see
    `PreparedSeed.write_trace_record`), and the checkpoint that the first
    record's `source` names (None without one). Each record must match `key`
    and hold the same counts, or a ValidationError names the file and the key."""
    trace, source, epochs = None, None, key["pretrain"]["epochs"]
    for path in paths:
        try:
            record = json.loads(Path(path).read_text(encoding="ascii"))
        except FileNotFoundError as exc:
            raise MissingTraceError(f"trace record not found: {path}") from exc
        except (OSError, ValueError) as exc:
            raise ValidationError(f"unreadable trace record {path}: {exc}") from exc
        if not isinstance(record, dict):
            raise ValidationError(f"trace record {path} is not a JSON object")
        for name, value in {**key, "epochs": epochs}.items():
            if record.get(name) != value:
                raise ValidationError(f"trace record {path}: {name} does not match "
                                      f"the config and seed")
        counts = record.get("counts")
        if not (isinstance(counts, list) and len(counts) == len(key["ids"])
                and all(type(c) is int and 0 <= c <= epochs for c in counts)):
            raise ValidationError(f"trace record {path}: counts must hold one count "
                                  f"in [0, epochs] per id")
        if trace is None:
            trace = np.array(counts, dtype=np.uint32)
            if "source" in record:
                source = _read_source(path, record["source"])
        elif counts != trace.tolist():
            raise ValidationError(f"trace record {path}: counts differ from {paths[0]}")
    return trace, source


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
    counts: np.ndarray | None = None  # the pretrain's trace (`pretrain_model`)
    model_o: Model | None = None
    original_path: str | None = None

    @property
    def original(self) -> Model:
        """The pretrained model; on first use, loaded from `original_path`
        when a trace record named it, else trained, unless the split needed it."""
        if self.model_o is None:
            if self.original_path is not None:
                self.model_o = load_model(self.original_path)
            else:
                self.model_o, _ = pretrain_model(self.config, self.train, self.root)
        return self.model_o

    def write_trace_record(self, path: str, source: str | None = None) -> None:
        """Write the pretrain's trace with what it is a function of to `path`
        as a JSON object: `seed`, `pretrain` (the resolved section),
        `data_sha256`, `ids`, `counts` and `epochs`. `source`, the checkpoint
        the model at hand started from, adds a `source` key: that file's path
        relative to the record's directory and the SHA-256 of its bytes."""
        record = {**_trace_key(self.config, self.root, self.train),
                  "counts": self.counts.tolist(), "epochs": self.config.pretrain.epochs}
        if source is not None:
            record["source"] = {"path": os.path.relpath(source, Path(path).parent),
                                "sha256": _file_sha256(source)}
        Path(path).write_text(json.dumps(record), encoding="ascii")

    def save(self, model: Model, path: str, source: str | None = None) -> list[str]:
        """Write `model` to the checkpoint `path` and, in difficult mode, its
        trace record beside it (`source` as in `write_trace_record`);
        returns the records written."""
        save_model(model, path)
        if self.spec.mode != "difficult":
            return []
        self.write_trace_record(path + RECORD_SUFFIX, source)
        return [path + RECORD_SUFFIX]

    def method_seed(self, method: str) -> int:
        return derive_seed(self.root, "method", method)

    def request(self, method: str, model: Model | None,
                epoch_callback=None) -> UnlearnRequest:
        """`method`'s unlearning request on `model`: the original model, or
        None to build an unlearning set that never reads it."""
        return UnlearnRequest(
            model=model, d_f=self.d_f, d_r=self.d_r,
            config=self.config.unlearn, params=self.config.params_for(method),
            seed=self.method_seed(method), epoch_callback=epoch_callback)

    def unlearn(self, method: str, original: Model | None, epoch_callback=None):
        """`method` run on this seed: (model, request, audit). Retrain trains a
        fresh model and returns its audit; an unlearner starts from `original`
        and returns the request it trained from, which holds the sets it built."""
        if method == "retrain":
            config = self.config.pretrain.with_seed(self.method_seed(method))
            model, audit = retrain(self.d_r, config, forbidden_ids=self.d_f.ids,
                                   epoch_callback=epoch_callback)
            return model, None, audit
        request = self.request(method, original, epoch_callback)
        return UNLEARN_METHODS[method](request), request, None

    def report(self, model: Model, model_r: Model, method: str | None = None,
               request: UnlearnRequest | None = None) -> tuple[dict, float | None]:
        """`model`'s metrics on this seed's splits (`evaluate_model`) and, beside
        them, the KL of the `method` that made it: 0 for the retrain reference
        `model_r`, None without a relabeled set, else `model_r`'s KL over the set
        `request` built (by default one on the original model, trained only if
        the set reads it)."""
        kl = 0.0 if method == "retrain" else None
        if method in UNLEARN_METHODS:
            if request is None:
                original = self.original if method in SETS_FROM_MODEL else None
                request = self.request(method, original)
            kl_set = unlearning_dataset(method, request)
            kl = None if kl_set is None else kl_avg(model_r, kl_set)
        return evaluate_model(model, self.d_r, self.d_f, self.test, self.spec), kl


def prepare_seed(config: ExperimentConfig, root: int,
                 stage=lambda name: contextlib.nullcontext(),
                 with_trace: bool = False, checkpoints=()) -> PreparedSeed:
    """Data, forgetting split and stage seeds of one root seed. In difficult
    mode the trace comes from the records beside `checkpoints` when given
    (checked by `_read_trace_records`), and the original model from the
    checkpoint the first record names as its `source`, if any. Otherwise the
    original model is pretrained here, with its trace, when the split ranks
    samples by it (difficult mode) or `with_trace` is set; else on first use.
    `stage(name)` is a context manager around each step."""
    seeds = {name: derive_seed(root, name) for name in ("dataset", "pretrain", "forget")}
    spec = config.forget_spec(seeds["forget"])
    with stage("dataset"):
        train_ds, test_ds = materialize_data(config, seeds["dataset"])
    if spec.mode != "class":  # over UDS files N is known only now
        forget_count(spec.ratio, len(train_ds))
    model_o = counts = original_path = None
    if spec.mode == "difficult" and checkpoints:
        counts, original_path = _read_trace_records(
            [checkpoint + RECORD_SUFFIX for checkpoint in checkpoints],
            _trace_key(config, root, train_ds))
    elif with_trace or spec.mode == "difficult":
        with stage("pretrain"):
            model_o, counts = pretrain_model(config, train_ds, root, with_trace=True)
    with stage("forget"):
        d_f, d_r = split_forget(train_ds, spec, counts)
    return PreparedSeed(config, root, train_ds, test_ds, spec, d_f, d_r, seeds,
                        counts, model_o, original_path)


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6f}"


def write_report_csv(path: Path, report: dict, kl: float | None, reference: dict) -> dict:
    """Write `report`'s rows against the retrain `reference` (mappings from
    `evaluate_model`), with its `kl` beside them; returns their values and
    gaps by metric name."""
    gaps = metric_gaps(report, reference)
    values, ref = {**report, "KL_avg": kl}, {**reference, "KL_avg": 0.0}
    gaps["KL_avg"] = None if kl is None else abs(kl - 0.0)
    lines = ["metric,value,retrain_value,gap"]
    for name, value in values.items():
        lines.append(f"{name},{_fmt(value)},{_fmt(ref[name])},{_fmt(gaps[name])}")
    values["Avg.Gap"] = gaps["Avg.Gap"] = avg_gap(report, reference)
    lines.append(f"Avg.Gap,,,{_fmt(gaps['Avg.Gap'])}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return {"values": values, "gaps": gaps}


def _aggregate_rows(per_seed: dict):
    """aggregate.csv's rows from each seed's `write_report_csv` results, by
    method in run order, in the reports' metric order."""
    rows = ["method,metric,mean,std,gap_mean,formatted"]
    first = next(iter(per_seed.values()))
    for method in first:
        for name in first[method]["values"]:
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
                   spec: ForgettingSpec | None = None) -> dict[str, float]:
    """One model's report: its percent metrics against the standard splits
    by name, in report order (TA, RA, FA, MIA; in class mode TA, RA,
    FATrain, FATest, MIA), from one forward pass over each split."""
    logits_r, logits_f, logits_test = (predict_logits(model, ds.pixels)
                                       for ds in (d_r, d_f, test_ds))
    clf = mia_fit(entropies_of_logits(logits_r), entropies_of_logits(logits_test))
    report = {"TA": accuracy_of_logits(logits_test, test_ds),
              "RA": accuracy_of_logits(logits_r, d_r),
              "FA": accuracy_of_logits(logits_f, d_f)}
    if spec is not None and spec.mode == "class":
        report["FATrain"] = report.pop("FA")
        report["FATest"] = accuracy(model, forgetting_test_subset(test_ds, spec))
    report["MIA"] = mia_ratio(clf, entropies_of_logits(logits_f))
    return report


def _openblas(symbol: str, restype):
    """`symbol()` of numpy's bundled OpenBLAS; None where numpy bundles none
    or the library lacks the symbol."""
    package = Path(np.__file__).resolve().parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        try:
            function = getattr(ctypes.CDLL(str(path)), symbol)
        except (OSError, AttributeError):
            continue
        function.argtypes, function.restype = [], restype
        return function()
    return None


def openblas_core() -> str | None:
    """The kernel OpenBLAS chose for this CPU (None as in `_openblas`)."""
    core = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return None if core is None else core.decode()


def run_environment() -> dict:
    """The manifest's `environment`: the BLAS thread variables as BLAS read
    them, the Python and numpy versions, numpy's BLAS name and version (None
    before numpy 1.26), and the OpenBLAS kernel and live thread count (None
    where numpy's OpenBLAS lacks the symbol). The live count is what BLAS
    uses, whatever the variables say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 prints only
        blas = None
    return {"blas_threads": dict(BLAS_THREADS), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "openblas_core": openblas_core(),
            "openblas_threads": _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)}


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Execute the full pipeline; returns the manifest dict.

    Writes per-seed report and curve CSVs, a cross-seed aggregate, and
    manifest.json. On failure the partial manifest is persisted with the
    failing stage and the exception's class (`error`) before the error
    propagates.
    """
    config.validate()
    out_root = Path(out_dir or os.environ.get("OUTPUT_DIR", config.output_dir))
    out_root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": config.semantic_dict(),
        "config_hash": config.hash(),
        "version": __version__,
        "environment": run_environment(),
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
            rows, audit, files, stage_seeds = _run_one_seed(config, root, out_root, stage)
            per_seed_rows[root] = rows
            manifest["retrain_audit"][str(root)] = audit
            manifest["files"] += files
            manifest["stage_seeds"][str(root)] = stage_seeds
        with stage("aggregate"):
            rows = _aggregate_rows(per_seed_rows)
            agg_path = out_root / "aggregate.csv"
            agg_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            manifest["files"].append(str(agg_path.relative_to(out_root)))
        manifest["status"] = "complete"
    except Exception as exc:
        manifest["status"] = f"failed at {failing[0]}: {exc}"
        manifest["error"] = {"stage": failing[0], "type": type(exc).__name__}
        _write_manifest(out_root, manifest)
        raise
    _write_manifest(out_root, manifest)
    return manifest


def _write_manifest(out_root: Path, manifest: dict) -> None:
    (out_root / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_one_seed(config: ExperimentConfig, root: int, out_root: Path, run_stage):
    """Retrain, then each method, through `PreparedSeed.unlearn` and `report`;
    writes the seed's CSVs. Returns the report rows by method, the retrain
    audit, the files written (relative to `out_root`) and the stage seeds."""
    seed_dir = out_root / f"seed_{root}"
    seed_dir.mkdir(parents=True, exist_ok=True)

    def stage(name):
        return run_stage(f"seed{root}/{name}")

    prep = prepare_seed(config, root, stage)
    with stage("pretrain"):
        prep.original  # trained here, so no method's clock counts it

    curves = ["method,epoch,fa,ra"]

    def curve_recorder(method):
        def cb(epoch, model):
            curves.append(f"{method},{epoch},{accuracy(model, prep.d_f):.6f},"
                          f"{accuracy(model, prep.d_r):.6f}")
        return cb

    reports = {}
    for method in dict.fromkeys(("retrain", *config.methods)):
        with stage(f"method:{method}"):
            model, request, audit = prep.unlearn(method, prep.original, curve_recorder(method))
            if method == "retrain":  # first: the reference of every report
                model_r, retrain_audit = model, audit
            reports[method] = prep.report(model, model_r, method, request)

    rows, files = {}, []
    with stage("reports"):
        for method, (values, kl) in reports.items():
            path = seed_dir / f"report_{method}.csv"
            rows[method] = write_report_csv(path, values, kl, reports["retrain"][0])
            files.append(path)
        curve_path = seed_dir / "curves.csv"
        curve_path.write_text("\n".join(curves) + "\n", encoding="ascii")
        files.append(curve_path)

    stage_seeds = {**prep.stage_seeds, **{f"method:{m}": prep.method_seed(m) for m in reports}}
    return rows, retrain_audit, [str(f.relative_to(out_root)) for f in files], stage_seeds
