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
from concurrent.futures import BrokenExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import BLAS_THREADS, __version__
from .data import (
    DEFAULT_SPREAD,
    Dataset,
    ForgettingSpec,
    check_superclass_map,
    check_synth,
    class_rows,
    forget_count,
    forgetting_test_subset,
    load_raw,
    split_forget,
    synth_blobs,
    to_superclass,
)
from .errors import (
    CheckpointFormatError,
    ConfigError,
    MissingTraceError,
    ValidationError,
    WorkerDiedError,
)
from .masks import build_mask_set
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
    METHODS,
    UNLEARN_METHODS,
    MethodParams,
    UnlearnRequest,
    fresh_job,
    retrain,
    retrain_job,
    unlearn_job,
    unlearning_dataset,
)
from .nn import (
    Job,
    Model,
    TrainConfig,
    load_model,
    predict_logits,
    process_worker,
    save_model,
    submit,
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
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected one of {tuple(METHODS)}")
        if self.synth is not None:
            s = self.synth
            check_synth(s.k, s.height, s.width, s.channels, s.spread,
                        per_class=s.per_class, test_per_class=s.test_per_class)
            k = s.k
            if self.superclass_map is not None:
                k = int(check_superclass_map(self.superclass_map, k).max()) + 1
            self.check_natmu(k, s.height, s.width)
        paths = [path for path in (self.train_path, self.test_path) if path]
        if len(paths) != (2 if self.synth is None else 0):
            raise ConfigError("a synth dataset takes no train_path or test_path; "
                              "kind = uds needs both")
        for path in paths:
            if not Path(path).exists():
                raise ConfigError(f"dataset not found: {path}")
        spec = self.forget_spec()
        if spec.mode == "class":
            self.check_forget_class()
        elif self.synth is not None:
            forget_count(spec.ratio, self.synth.k * self.synth.per_class)

    def check_forget_class(self) -> None:
        """Refuse sub scope without a superclass map, whose fine labels it
        reads, and a class-mode `forget_class` no training row can carry:
        one below 0, or one outside the classes it indexes where the config
        fixes them (the map's fine classes under sub scope, the superclasses
        the map maps to, else a synth set's k)."""
        mapping, c = self.superclass_map, self.forget_class
        if self.forget_scope == "sub":
            if mapping is None:
                raise ConfigError("[forget] scope = sub needs a [dataset] superclass_map")
            classes = range(len(mapping))
        elif mapping is not None:
            classes = set(mapping)
        else:
            classes = None if self.synth is None else range(self.synth.k)
        if c < 0 or (classes is not None and c not in classes):
            raise ConfigError(f"[forget] class_index = {c} names no class of the "
                              f"{'fine' if self.forget_scope == 'sub' else 'training'} labels")

    def check_natmu(self, k: int, height: int, width: int) -> None:
        """Refuse a natmu `n` above K-1, the categories a hybrid can take
        among the training set's `k` classes, and mask parameters that
        `build_mask_set`, the owner of the mask rules, refuses for images of
        `height` x `width`."""
        if "natmu" not in (*self.methods, *self.method_params):
            return
        p = self.params_for("natmu")
        if p.n > k - 1:
            raise ConfigError(f"[method.natmu] n = {p.n} exceeds K-1 = {k - 1}, "
                              "the categories a hybrid can take")
        try:
            build_mask_set(p.mask_family, height, width, p.delta, p.cutmix_edge)
        except ValidationError as exc:
            raise ConfigError(f"[method.natmu] {exc}") from exc

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
    if keys is None:
        keys = {name: name for name in types if name != "seed"}  # seeds fan out from [run]
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
            method = name[len("method."):]
            known = METHODS.get(method)  # validate refuses an unknown method
            keys = None if known is None else {key: key for key in known.params}
            cfg.method_params[method] = _take(section, MethodParams(), keys)
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
    counts = np.zeros(len(train_ds), dtype=np.uint32) if with_trace else None

    def count_correct(epoch, current):
        counts[predict_logits(current, train_ds.pixels).argmax(axis=1) == train_ds.labels] += 1

    job = fresh_job(train_ds, config.pretrain.with_seed(derive_seed(root_seed, "pretrain")))
    return train(*job._replace(epoch_callback=count_correct if with_trace else None)), counts


# In difficult mode the split ranks samples by the pretrain's trace. Every
# checkpoint `PreparedSeed.save` writes gets the record of that trace beside
# it, and `prepare_seed` given checkpoints reads the split back from there.
# An unlearned model's record also names the checkpoint it started from, so
# the original model is loaded rather than pretrained again. A record is also
# a cache entry, keyed by `_trace_key`: a retrain given no checkpoint takes
# its split from the records in its output directory that match the key.
RECORD_SUFFIX = ".trace.json"


def _trace_key(config: ExperimentConfig, root: int, train_ds: Dataset) -> dict:
    """What the pretrain's trace is a function of: the root seed, the resolved
    [pretrain] section and the training set (its hash and its ids)."""
    digest = hashlib.sha256(json.dumps([len(train_ds), train_ds.height, train_ds.width,
                                        train_ds.channels, train_ds.k]).encode())
    # the arrays' own buffers, converted (copied) only if not already in these dtypes
    digest.update(np.ascontiguousarray(train_ds.pixels, dtype="<f4"))
    digest.update(np.ascontiguousarray(train_ds.labels, dtype="<i8"))
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


def _read_trace(paths, key: dict, strict: bool) -> tuple[np.ndarray | None, str | None]:
    """The trace counts held by the trace records at `paths` (see
    `PreparedSeed.write_trace_record`) that match `key` (`_trace_key`) and its
    epochs, and the checkpoint the first record's `source` names (None
    without one). Strict, for the records beside checkpoints: a record that is
    missing (MissingTraceError), does not parse, is not a JSON object or
    differs in a key field is refused with a ValidationError that names the
    file and the field. Lenient, for the cache in an output directory: such a
    record is skipped, `source` is not read, and the counts are None if no
    record matches (the caller pretrains, which gives the same counts). The
    matching records must hold one int count in [0, epochs] per id, the same
    in each, or a ValidationError names the file and `counts`."""
    wanted = {**key, "epochs": key["pretrain"]["epochs"]}
    records = []
    for path in paths:
        try:
            try:
                record = json.loads(Path(path).read_text(encoding="ascii"))
            except FileNotFoundError as exc:
                raise MissingTraceError(f"trace record not found: {path}") from exc
            except (OSError, ValueError) as exc:
                raise ValidationError(f"unreadable trace record {path}: {exc}") from exc
            if not isinstance(record, dict):
                raise ValidationError(f"trace record {path} is not a JSON object")
            for name, value in wanted.items():
                if record.get(name) != value:
                    raise ValidationError(f"trace record {path}: {name} does not match "
                                          f"the config and seed")
            records.append((path, record))
        except ValidationError:
            if strict:
                raise
    if not records:
        return None, None
    trace = None
    for path, record in records:
        counts = record.get("counts")
        if (isinstance(counts, list) and len(counts) == len(key["ids"])
                and set(map(type, counts)) <= {int}):  # not bool, not float
            counts = np.array(counts)
        if not (isinstance(counts, np.ndarray)
                and ((counts >= 0) & (counts <= wanted["epochs"])).all()):
            raise ValidationError(f"trace record {path}: counts must hold one count "
                                  f"in [0, epochs] per id")
        if trace is None:
            trace = counts.astype(np.uint32)
        elif not np.array_equal(counts, trace):
            raise ValidationError(f"trace record {path}: counts differ from {records[0][0]}")
    path, first = records[0]
    return trace, _read_source(path, first["source"]) if strict and "source" in first else None


@dataclass
class PreparedSeed:
    """A root seed's data, split and stage seeds, as `run` and the stage CLI
    use them. The full training set is held only while the original model
    still has to be pretrained from it (`prepare_seed`)."""

    config: ExperimentConfig
    root: int
    train: Dataset | None  # None once the original is made, or if never pretrained here
    test: Dataset
    spec: ForgettingSpec
    d_f: Dataset
    d_r: Dataset
    stage_seeds: dict
    counts: np.ndarray | None = None  # the pretrain's trace (`pretrain_model`)
    model_o: Model | None = None
    original_path: str | None = None
    key: dict | None = None  # the trace's `_trace_key`, with `counts`

    @property
    def original(self) -> Model:
        """The pretrained model; on first use, loaded from `original_path`
        when a trace record named it, else trained, unless the split needed
        it. The full training set is dropped once the model is at hand."""
        if self.model_o is None:
            if self.original_path is not None:
                self.model_o = self.load(self.original_path)
            else:
                self.model_o, _ = pretrain_model(self.config, self.train, self.root)
            self.train = None
        return self.model_o

    def load(self, path: str) -> Model:
        """The checkpoint at `path`, refused with a CheckpointFormatError
        unless it maps this seed's training rows to its classes."""
        model = load_model(path)
        if (model.input_dim, model.class_count) != (self.d_r.dim, self.d_r.k):
            raise CheckpointFormatError(
                f"checkpoint {path} maps {model.input_dim} inputs to {model.class_count} "
                f"classes, but the data has {self.d_r.dim} and {self.d_r.k}")
        return model

    def write_trace_record(self, path: str, source: str | None = None) -> None:
        """Write the pretrain's trace with what it is a function of to `path`
        as a JSON object: `seed`, `pretrain` (the resolved section),
        `data_sha256`, `ids`, `counts` and `epochs`. `source`, the checkpoint
        the model at hand started from, adds a `source` key: that file's path
        relative to the record's directory and the SHA-256 of its bytes."""
        record = {**self.key, "counts": self.counts.tolist(),
                  "epochs": self.config.pretrain.epochs}
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

    def request(self, method: str, model: Model | None) -> UnlearnRequest:
        """`method`'s unlearning request on `model`: the original model, or
        None to build an unlearning set that never reads it."""
        return UnlearnRequest(
            model=model, d_f=self.d_f, d_r=self.d_r,
            config=self.config.unlearn, params=self.config.params_for(method),
            seed=self.method_seed(method))

    def job(self, method: str, request: UnlearnRequest | None = None) -> Job:
        """`method`'s training job on this seed (an unlearner's on `request`)."""
        if method == "retrain":
            config = self.config.pretrain.with_seed(self.method_seed(method))
            return retrain_job(self.d_r, config, forbidden_ids=self.d_f.ids)
        return unlearn_job(method, request)

    def unlearn(self, method: str, request: UnlearnRequest | None = None, pending=None):
        """`method` run on this seed: (model, audit; None for an unlearner), from
        `pending`, the submitted `job(method, request)`, by default kept to train here."""
        pending = pending or submit(self.job(method, request))
        if method == "retrain":
            return retrain(self.d_r, pending.job.config, pending=pending)
        return UNLEARN_METHODS[method](request, pending), None

    def report(self, model: Model, model_r: Model, method: str | None = None,
               request: UnlearnRequest | None = None) -> tuple[dict, float | None]:
        """`model`'s metrics on this seed's splits (`evaluate_model`) and, beside
        them, the KL of the `method` that made it: 0 for the retrain reference
        `model_r`, None without a relabeled set, else `model_r`'s KL over the set
        `request` built (by default one on the original model, trained only if
        the set reads it)."""
        kl = 0.0 if method == "retrain" else None
        record = METHODS.get(method)
        if record is not None and record.training_set is not None:  # an unlearner
            if request is None:
                request = self.request(method, self.original if record.reads_model else None)
            kl_set = unlearning_dataset(method, request)
            kl = None if kl_set is None else kl_avg(model_r, kl_set)
        return evaluate_model(model, self.d_r, self.d_f, self.test, self.spec), kl


def prepare_seed(config: ExperimentConfig, root: int,
                 stage=lambda name: contextlib.nullcontext(),
                 with_trace: bool = False, checkpoints=(), record_dir=None,
                 original: bool = False) -> PreparedSeed:
    """Data, forgetting split and stage seeds of one root seed. In difficult
    mode one call of `_read_trace` gives the trace: strict over the records
    beside `checkpoints` when given, with the original model from the
    checkpoint the first record names as its `source`, if any; else lenient
    over the records in `record_dir`, if given. Without a trace from there,
    the original model is pretrained here, with its trace, before the split
    when the split ranks samples by it (difficult mode), after the split
    when `with_trace` is set; else on first use. With a trace, its key is
    computed here. The full training set is kept only if the caller will
    use the `original` model and it is still to be pretrained from it.
    `stage(name)` is a context manager around each step."""
    seeds = {name: derive_seed(root, name) for name in ("dataset", "pretrain", "forget")}
    spec = config.forget_spec(seeds["forget"])
    with stage("dataset"):
        train_ds, test_ds = materialize_data(config, seeds["dataset"])
        # over UDS files K, N and the image size are known only now
        config.check_natmu(train_ds.k, train_ds.height, train_ds.width)
        if spec.mode != "class":
            forget_count(spec.ratio, len(train_ds))
    model_o = counts = original_path = key = None
    if spec.mode == "difficult" and (checkpoints or record_dir is not None):
        key = _trace_key(config, root, train_ds)
        paths = ([checkpoint + RECORD_SUFFIX for checkpoint in checkpoints]
                 or sorted(Path(record_dir).glob("*" + RECORD_SUFFIX)))
        counts, original_path = _read_trace(paths, key, strict=bool(checkpoints))

    def pretrain():
        with stage("pretrain"):
            return pretrain_model(config, train_ds, root, with_trace=True)
    if counts is None and spec.mode == "difficult":
        model_o, counts = pretrain()
    with stage("forget"):
        d_f, d_r = split_forget(train_ds, spec, counts)
        if spec.mode == "class":  # FATest's rows, refused now if there are none
            class_rows(test_ds, spec, "test instances")
    if counts is None and with_trace:
        model_o, counts = pretrain()
    if counts is not None and key is None:
        key = _trace_key(config, root, train_ds)
    if not (original and model_o is None and original_path is None):
        train_ds = None
    return PreparedSeed(config, root, train_ds, test_ds, spec, d_f, d_r, seeds,
                        counts, model_o, original_path, key)


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


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Stages:
    """`stages(name)` times the stage `name` into `clock` (summed over its
    entries) and keeps in `failed` the stage the propagating exception
    escaped. `job` enters a model's training span in `jobs`, the run's
    timeline, in seconds from this object's creation, and `peaks` takes each
    collected job's `nn.Pending.worker_peak_rss_mb` beside it; `stages(name,
    job=(seed, model))` enters the stage's own, as a model trained in it on
    this thread."""

    def __init__(self, clock: dict, jobs: dict):
        self.clock, self.jobs, self.failed, self.peaks = clock, jobs, None, []
        self.start = time.monotonic()

    @contextlib.contextmanager
    def __call__(self, name, job=None):
        t0, start, cpu = time.perf_counter(), time.monotonic(), time.process_time()
        try:
            yield
        except Exception:
            self.failed = name
            raise
        self.clock[name] = self.clock.get(name, 0.0) + time.perf_counter() - t0
        if job is not None:
            self.job(*job, "caller", (start, time.monotonic(), time.process_time() - cpu))

    def job(self, seed, model: str, slot: str, span) -> None:
        """Enter `model`'s training `span` (`nn.Pending.span`) in `seed`'s timeline."""
        start, end, cpu = span
        self.jobs.setdefault(str(seed), {})[model] = {
            "slot": slot, "start_s": round(start - self.start, 6),
            "end_s": round(end - self.start, 6), "cpu_s": round(cpu, 6)}


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Execute the full pipeline; returns the manifest dict.

    Writes per-seed report and curve CSVs, a cross-seed aggregate, and
    manifest.json, whose `jobs` timeline gives each model's slot, span and
    CPU time. Every model is trained from this thread; where this process
    may use two or more CPUs, each seed's retrain and every other unlearner
    train on one worker process (`nn.process_worker`, `_run_one_seed`). On
    failure the partial manifest is persisted with the failing stage and
    the exception's class (`error`) before the error propagates: of two
    failures, the earlier in the order pretrain, retrain, methods in config
    order. The worker stops either way; if it dies, WorkerDiedError.
    """
    config.validate()
    out_root = Path(out_dir or os.environ.get("OUTPUT_DIR", config.output_dir))
    out_root.mkdir(parents=True, exist_ok=True)
    processes = usable_cpus() >= 2
    manifest = {
        "config": config.semantic_dict(),
        "config_hash": config.hash(),
        "version": __version__,
        "environment": {**run_environment(),
                        "retrain_worker": "process" if processes else "in-process",
                        "worker_peak_rss_mb": None},
        "seeds": list(config.seeds),
        "stage_seeds": {},
        "wall_clock": {},
        "jobs": {},
        "files": [],
        "retrain_audit": {},
        "status": "running",
    }
    stage = _Stages(manifest["wall_clock"], manifest["jobs"])
    worker = None
    try:
        # started before seed 1's data is made, so the two overlap
        worker = process_worker() if processes else None
        per_seed_rows = {}
        for root in config.seeds:
            rows, audit, files, stage_seeds = _run_one_seed(config, root, out_root, stage,
                                                            worker)
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
        failed_at = stage.failed or "setup"
        error = exc
        if worker is not None and isinstance(exc, BrokenExecutor):
            error = WorkerDiedError(
                f"the worker process died ({exc}); a script that calls "
                "runner.run_experiment must do so under `if __name__ == \"__main__\":`, "
                "since the spawned worker imports the script's main module")
        manifest["status"] = f"failed at {failed_at}: {error}"
        manifest["error"] = {"stage": failed_at, "type": type(error).__name__}
        if error is not exc:
            raise error from exc
        raise
    finally:
        if worker is not None:
            worker.shutdown(cancel_futures=True)
            peaks = filter(None, stage.peaks)  # None: a job kept here
            manifest["environment"]["worker_peak_rss_mb"] = max(peaks, default=None)
        if manifest["status"] != "running":
            _write_manifest(out_root, manifest)
    return manifest


def _write_manifest(out_root: Path, manifest: dict) -> None:
    (out_root / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _curve_row(method: str, epoch: int, model: Model, d_f: Dataset, d_r: Dataset) -> str:
    """`method`'s curves.csv row of `epoch`: `model`'s accuracy on `d_f` and `d_r`."""
    return f"{method},{epoch},{accuracy(model, d_f):.6f},{accuracy(model, d_r):.6f}"


class _CurveRows:
    """An epoch callback that makes `method`'s curve rows (`_curve_row`).
    Given the splits (d_f, d_r), it makes each epoch's row where the model
    trains, and a worker sends the rows back without the splits; else it
    keeps each epoch's copy in one array until `rows` makes their rows."""

    def __init__(self, method: str, epochs: int, splits=None):
        self.method, self.epochs, self.splits = method, epochs, splits
        self.made, self.arenas, self.shapes = [], None, None

    def __getstate__(self):
        if len(self.made) == self.epochs:  # every row made: the splits stay here
            return {**vars(self), "splits": None}
        return vars(self)

    def __call__(self, epoch, model):
        if self.splits is not None:
            self.made.append(_curve_row(self.method, epoch, model, *self.splits))
            return
        if self.arenas is None:
            self.arenas = np.empty((self.epochs, model.flat.size), model.flat.dtype)
            self.shapes = model.shapes
        self.arenas[epoch] = model.flat

    def rows(self, d_f: Dataset, d_r: Dataset) -> list[str]:
        """Every epoch's row, those of the kept copies made now; the copies are released."""
        copies, self.arenas = self.arenas, None
        return self.made + [_curve_row(self.method, epoch, Model.on_arena(flat, self.shapes),
                                       d_f, d_r)
                            for epoch, flat in enumerate(() if copies is None else copies)]


def _run_one_seed(config: ExperimentConfig, root: int, out_root: Path, stages: _Stages,
                  worker):
    """The pretrain, the retrain oracle and each method, through
    `PreparedSeed.job`, `unlearn` and `report`, on one path for any CPU
    count. The retrain's job is submitted (`nn.submit`) to `worker` (None:
    kept, and trained here once collected) before the pretrain trains here,
    and the 1st, 3rd, ... unlearner's right after the pretrain, so that
    they queue behind the retrain. Then the 2nd, 4th, ... train here, and
    only after them are the retrain and each submitted unlearner collected;
    the reports come last. A submitted unlearner's curve rows are made
    where it trains; the retrain's and those of the methods trained here,
    from their epoch copies here. Of two failures the earlier in the order
    pretrain, retrain, methods in config order is raised, and the jobs of
    the methods after a failure are dropped if the worker has not started
    them. Writes the seed's CSVs and enters each model's span, and each
    collected job's worker peak RSS, in `stages`; returns the report rows by
    method, the retrain audit, the files written and the stage seeds."""
    def stage(name):
        # the pretrain trains in its stage, here or in `prepare_seed`
        return stages(f"seed{root}/{name}", job=(root, name) if name == "pretrain" else None)

    prep = prepare_seed(config, root, stage, original=True)
    unlearners = [method for method in config.methods if method != "retrain"]
    order, queued = ["retrain", *unlearners], unlearners[0::2]
    sent, made, reports, failures = {}, {}, {}, {}  # by method

    def send(method, slot, splits=None):
        """Build `method`'s job here, with a `_CurveRows` of `splits`, and
        submit it to `slot`."""
        request = None if method == "retrain" else prep.request(method, prep.original)
        job = prep.job(method, request)
        job = job._replace(epoch_callback=_CurveRows(method, job.config.epochs, splits))
        sent[method] = request, submit(job, slot), "caller" if slot is None else "worker"

    def collect(method):
        """`method`'s model, audit, request and curve rows, from its sent job."""
        request, pending, slot = sent[method]
        model, audit = prep.unlearn(method, request, pending)
        stages.job(root, method, slot, pending.span)
        stages.peaks.append(pending.worker_peak_rss_mb)
        made[method] = model, audit, request, pending.job.epoch_callback.rows(prep.d_f, prep.d_r)

    def report(method):
        model, _, request, _ = made[method]
        reports[method] = prep.report(model, made["retrain"][0], method, request)

    def attempt(step, method, *args):
        """`step(method, *args)` at `method`'s stage, unless an earlier
        method (or this one) has failed; a failure is kept, and the jobs of
        the methods after it are dropped."""
        at = order.index(method)
        if any(order.index(failed) <= at for failed in failures):
            return
        try:
            with stage(f"method:{method}"):
                step(method, *args)
        except Exception as exc:
            failures[method] = exc
            for later in order[at + 1:]:
                if later in sent:
                    sent[later][1].cancel()

    try:
        with stage("method:retrain"):
            send("retrain", worker)
        if prep.model_o is None:  # in difficult mode the split's pretrain made it
            with stage("pretrain"):
                prep.original  # trained here, so no method's clock counts it
        for method in queued:
            attempt(send, method, worker, (prep.d_f, prep.d_r))
        for method in unlearners[1::2]:
            attempt(send, method, None)
            attempt(collect, method)
        for method in ["retrain", *queued]:
            attempt(collect, method)
        # reporting the models at hand before the worker's are back raised
        # desk's peak RSS by 4 MB
        for method in order:
            attempt(report, method)
    finally:  # every job not collected is dropped at once, then waited for if started
        for _, pending, _ in sent.values():
            pending.cancel()
        for _, pending, _ in sent.values():
            pending.close()
    if failures:
        first = min(failures, key=order.index)
        with stage(f"method:{first}"):
            raise failures[first]

    seed_dir, rows, files = out_root / f"seed_{root}", {}, []
    with stage("reports"):
        seed_dir.mkdir(parents=True, exist_ok=True)
        for method in order:
            path = seed_dir / f"report_{method}.csv"
            values, kl = reports[method]
            rows[method] = write_report_csv(path, values, kl, reports["retrain"][0])
            files.append(path)
        curve_path = seed_dir / "curves.csv"
        lines = ["method,epoch,fa,ra", *(row for method in order for row in made[method][3])]
        curve_path.write_text("\n".join(lines) + "\n", encoding="ascii")
        files.append(curve_path)

    stage_seeds = {**prep.stage_seeds, **{f"method:{m}": prep.method_seed(m) for m in order}}
    return rows, made["retrain"][1], [str(f.relative_to(out_root)) for f in files], stage_seeds
